// Command servebench is the repository's benchmark: it serves a
// preloaded, restarted tenant from an in-process sppserver over
// loopback and drives it with two closed-loop connections of real
// get/put/scan traffic, verifying every reply. A run with --trace 0
// prints the end-to-end metrics; a run with --trace 1 prints the
// per-layer metrics, timed from outside through each layer's public
// functions. See README.md for the workloads and the metrics.
//
//	go -C servebench run . --workload kv-update --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero
// when any reply fails verification or the run cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// samples is the count the figure was computed from (0 = not a
	// sample statistic); printed, not part of the JSON.
	samples int
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one invocation's inputs.
type options struct {
	workload   workload
	seed       uint64
	window     time.Duration
	trace      bool
	protection string
	out        string
	// setups is how many times setup runs; setup_s is their median and
	// the last one serves the measured window.
	setups int
}

func main() {
	var (
		name       = flag.String("workload", "", "workload: kv-update, kv-read or kv-scan")
		seed       = flag.Uint64("seed", 1, "workload seed")
		seconds    = flag.Float64("seconds", 10, "measured window length in seconds")
		traceFlag  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		protection = flag.String("protection", "spp", "tenant pool protection: spp or none")
		out        = flag.String("out", ".bench_build", "directory for temporary pools and span files; runs sharing it must not overlap")
	)
	flag.Parse()
	wl, err := findWorkload(*name)
	if err == nil && (*traceFlag < 0 || *traceFlag > 1) {
		err = fmt.Errorf("--trace must be 0 or 1, not %d", *traceFlag)
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	opt := options{
		workload:   wl,
		seed:       *seed,
		window:     time.Duration(*seconds * float64(time.Second)),
		trace:      *traceFlag == 1,
		protection: *protection,
		out:        *out,
		setups:     3,
	}
	res, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one invocation and prints each metric with its unit and
// sample count to w; the caller prints the JSON result line.
func run(opt options, w io.Writer) (*result, error) {
	fmt.Fprintf(w, "# servebench workload=%s seed=%d protection=%s connections=2 keys=%d value=%dB window=%v warm-up=%d/%d ops on connection 0/1 setups=%d trace=%v\n",
		opt.workload.name, opt.seed, opt.protection, opt.workload.keys, valueSize, opt.window,
		opt.workload.warmOps(0), opt.workload.warmOps(1), opt.setups, opt.trace)
	b := newBench(opt.workload, opt.seed, opt.protection, opt.out)
	// A killed run leaves its pools behind. Runs sharing an output
	// directory do not overlap, so clear them first.
	if err := os.RemoveAll(b.tmp); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.tmp, 0o755); err != nil {
		return nil, err
	}
	var res *result
	var err error
	if opt.trace {
		res, err = b.traced(opt, w)
	} else {
		res, err = b.endToEnd(opt)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-32s %14.4f %-6s", n, m.Value, m.Unit)
		if m.samples > 0 {
			fmt.Fprintf(w, " samples=%d", m.samples)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d fail_frac=%.6f correct=%v\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Correct)
	return res, nil
}

// endToEnd sets up opt.setups times, keeps the last session, and
// measures one untraced window on it.
func (b *bench) endToEnd(opt options) (*result, error) {
	s, setupS, err := b.setupN(opt.setups)
	if err != nil {
		return nil, err
	}
	win := b.measure(s, opt.window, nil)
	if err := s.close(); err != nil {
		return nil, err
	}
	attempted, served, errs, shed, bad := win.ops()
	res := &result{
		Correct:   bad == 0,
		Attempted: attempted,
		Failed:    errs + shed + bad,
		Metrics: map[string]metric{
			"throughput_ops": {Value: float64(served) / win.elapsed.Seconds(), Unit: "ops/s", samples: served},
			"setup_s":        {Value: median(setupS), Unit: "s", samples: len(setupS)},
		},
	}
	for op := opKind(0); op < numOps; op++ {
		if b.wl.hasOp(op) {
			addLatency(res.Metrics, opNames[op], win.lat(op))
		}
	}
	if err := win.firstErr(); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: first failure:", err)
	}
	return res, nil
}

// setupN runs setup n times and returns the last session with every
// setup's duration in seconds.
func (b *bench) setupN(n int) (*session, []float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		s, d, err := b.setup(i, false, false, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("setup %d: %w", i, err)
		}
		times = append(times, d.Seconds())
		if i == n-1 {
			return s, times, nil
		}
		if err := s.close(); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, fmt.Errorf("setup count %d", n)
}

// addLatency reports the median and p99 of d in microseconds under
// prefix_p50_us and prefix_p99_us. A workload reports them for each op
// type it issues.
func addLatency(m map[string]metric, prefix string, d []time.Duration) {
	p50, p99 := percentile(d, 0.50), percentile(d, 0.99)
	m[prefix+"_p50_us"] = metric{Value: us(p50), Unit: "us", samples: len(d)}
	m[prefix+"_p99_us"] = metric{Value: us(p99), Unit: "us", samples: len(d)}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile returns the nearest-rank q-quantile of d (sorting d).
func percentile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(q*float64(len(d))+0.999999) - 1
	return d[min(max(i, 0), len(d)-1)]
}

func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
