package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// tiny shrinks a workload so a whole run takes about a second.
func tiny(wl workload) workload {
	wl.keys = 1000
	wl.warm, wl.warmScan = 50, 5
	return wl
}

// spec is the part of BENCHMARK.json the tests check against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// names returns the sorted names of declared metrics.
func names(ms []struct{ Name string }) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// Every workload runs end to end at a tiny size, untraced and traced,
// with every reply verified. The metric names must be the ones
// BENCHMARK.json declares; a workload it does not list reports
// latencies for the op types it issues.
func TestTinyRunsReportDeclaredMetrics(t *testing.T) {
	sp := readSpec(t)
	listed := map[string]bool{}
	for _, w := range sp.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
		listed[w.Name] = true
	}
	for _, traced := range []bool{false, true} {
		for _, wl := range workloads {
			var want []string
			switch {
			case traced:
				want = names(sp.PerLayer)
			case listed[wl.name]:
				want = names(sp.EndToEnd)
			default:
				want = []string{"setup_s", "throughput_ops"}
				for op := opKind(0); op < numOps; op++ {
					if wl.hasOp(op) {
						want = append(want, opNames[op]+"_p50_us", opNames[op]+"_p99_us")
					}
				}
				sort.Strings(want)
			}
			opt := options{
				workload:   tiny(wl),
				seed:       7,
				window:     300 * time.Millisecond,
				trace:      traced,
				protection: "spp",
				out:        t.TempDir(),
				setups:     2,
			}
			res, err := run(opt, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if m.Unit == "" {
					t.Errorf("%s trace=%v: %s has no unit", wl.name, traced, name)
				}
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%v: metrics %v, want %v", wl.name, traced, got, want)
			}
		}
	}
}

func TestVerifierRejectsBadValues(t *testing.T) {
	const keys = 10
	led := newLedger(keys)
	key := makeKey(4)
	v := make([]byte, valueSize)
	encodeValue(v, key, owner(4), 3)
	led.issued[4].Store(5)
	if err := led.check(v, 4, key, 3); err != nil {
		t.Fatalf("intact value rejected: %v", err)
	}

	other := makeKey(6)
	if err := led.check(v, 6, other, 0); !errors.Is(err, errWrongKey) {
		t.Errorf("wrong-key value: got %v, want %v", err, errWrongKey)
	}

	torn := append([]byte(nil), v...)
	torn[vFiller+40] ^= 0x10
	if err := led.check(torn, 4, key, 3); !errors.Is(err, errTorn) {
		t.Errorf("torn value: got %v, want %v", err, errTorn)
	}
	if err := led.check(v[:valueSize-1], 4, key, 3); !errors.Is(err, errTorn) {
		t.Errorf("short value: got %v, want %v", err, errTorn)
	}

	if err := led.check(v, 4, key, 4); !errors.Is(err, errStale) {
		t.Errorf("stale value: got %v, want %v", err, errStale)
	}

	encodeValue(v, key, owner(4), 6)
	if err := led.check(v, 4, key, 3); !errors.Is(err, errFuture) {
		t.Errorf("unwritten version: got %v, want %v", err, errFuture)
	}

	encodeValue(v, key, 1-owner(4), 3)
	if err := led.check(v, 4, key, 3); !errors.Is(err, errWriter) {
		t.Errorf("foreign writer: got %v, want %v", err, errWriter)
	}
}

func TestCheckScanRejectsBadResults(t *testing.T) {
	wl := tiny(workloads[0])
	wl.keys = 2 * scanLen
	b := newBench(wl, 1, "spp", t.TempDir())
	led := newLedger(wl.keys)
	const lo = 10
	good := func() []wire.KV {
		kvs := make([]wire.KV, scanLen)
		for j := range kvs {
			k := lo + j
			v := make([]byte, valueSize)
			encodeValue(v, b.keys[k], owner(k), 0)
			kvs[j] = wire.KV{Key: b.keys[k], Value: v}
		}
		return kvs
	}
	acked := make([]uint32, scanLen)
	if err := b.checkScan(led, good(), lo, acked); err != nil {
		t.Fatalf("correct scan rejected: %v", err)
	}
	cases := map[string]func([]wire.KV) []wire.KV{
		"unsorted":     func(k []wire.KV) []wire.KV { k[3], k[4] = k[4], k[3]; return k },
		"out of range": func(k []wire.KV) []wire.KV { k[scanLen-1].Key = b.keys[lo+scanLen]; return k },
		"over limit":   func(k []wire.KV) []wire.KV { return append(k, k[0]) },
		"incomplete":   func(k []wire.KV) []wire.KV { return k[:scanLen-1] },
		"torn value":   func(k []wire.KV) []wire.KV { k[7].Value[vFiller] ^= 1; return k },
	}
	for name, corrupt := range cases {
		if err := b.checkScan(led, corrupt(good()), lo, acked); err == nil {
			t.Errorf("%s scan accepted", name)
		}
	}
}
