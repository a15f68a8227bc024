// Package engine holds the single definition of the engine's tuning
// surface. Every layer that used to re-declare these fields —
// pmemobj.Config, variant.Options, bench.Config, and each binary's
// flag block — now embeds Knobs (and, where pool geometry matters,
// Geometry) instead, so a knob added here is automatically carried
// through pool creation, environment assembly, the benchmark harness,
// and the command-line of sppbench, sppc and sppserver. RegisterFlags
// is the one flag-registration site; knobFlags names the flag for each
// field and the tests assert the mapping is total, so a new field
// cannot silently miss its flag or get dropped in translation.
package engine

import "flag"

// Knobs are the volatile engine knobs: they shape rebuilt in-memory
// structure and dispatch, never the persistent layout, so any pool may
// be opened under any combination.
type Knobs struct {
	// NArenas is the number of heap arenas (independent allocator
	// shards); the pool default when zero.
	NArenas int
	// DisableLaneAffinity turns off the worker-affine lane cache and
	// dispenses every lane through the shared channel.
	DisableLaneAffinity bool
	// DisableRangeDedup makes AddRange snapshot every requested range
	// in full instead of only the sub-ranges not yet covered by this
	// transaction's interval set.
	DisableRangeDedup bool
	// DisableFlushCoalesce makes the commit pipeline's flush
	// accumulators pass each flush straight to the device instead of
	// merging duplicate and adjacent cachelines per fence epoch.
	DisableFlushCoalesce bool
	// DisableGroupFence gives every committer a private fence instead
	// of sharing one through the device's epoch combiner.
	DisableGroupFence bool
	// DisableBitmapAlloc turns off the hierarchical free-bitmap
	// size-class pools and serves every block from the map-based free
	// lists; both modes rebuild from the same persistent headers.
	DisableBitmapAlloc bool
	// NoCompile makes the interpreter execute IR by walking
	// instructions instead of through closure-compiled functions (the
	// interpreter is the reference semantics).
	NoCompile bool
	// NoMVCC turns off multi-version snapshot isolation for kvstore
	// reads: Get and Scan take the per-shard RWMutex and read the
	// latest copy-on-write root instead of running lock-free against a
	// pinned one, and Snapshot pins nothing. Writes are unchanged. The
	// ablation baseline for -exp scan.
	NoMVCC bool
	// Telemetry turns on the global metrics registry; process-wide
	// once set (see internal/telemetry).
	Telemetry bool
	// FlightRecorder turns on the global flight-recorder event ring.
	FlightRecorder bool
	// TraceSample traces 1 in N served requests with a per-phase
	// latency breakdown (internal/trace); 0 disables request tracing.
	// The server applies its own sampler to requests whose client sent
	// no trace context, so attribution works with old clients too.
	TraceSample int
	// SlowTraceUS captures traced requests at least this many
	// microseconds slow as whole-request exemplars on /debug/slow;
	// 0 disables exemplar capture.
	SlowTraceUS int
	// MetricsSample records 1 in N increments (weighted, rounded up to
	// a power of two) on the hottest per-access hook counters instead
	// of every one, so telemetry stays cheap on multi-core; 0 or 1
	// counts exactly.
	MetricsSample int
}

// Geometry sizes the pool's transaction logs. Unlike Knobs these are
// persisted in the pool header at creation; on reopen the header wins.
type Geometry struct {
	// NLanes is the number of redo/undo lanes (concurrent
	// transactions).
	NLanes int
	// RedoEntries is the redo-log capacity per lane.
	RedoEntries int
	// UndoBytes is the undo-log capacity per lane.
	UndoBytes uint64
}

// knobFlags maps every Knobs field to its canonical command-line flag.
// TestRegisterFlagsCoversEveryKnob walks the struct and fails on any
// field missing here, and RegisterFlags is driven off the same table,
// so the mapping cannot drift.
var knobFlags = map[string]string{
	"NArenas":              "arenas",
	"DisableLaneAffinity":  "no-affinity",
	"DisableRangeDedup":    "no-range-dedup",
	"DisableFlushCoalesce": "no-flush-coalesce",
	"DisableGroupFence":    "no-group-fence",
	"DisableBitmapAlloc":   "no-bitmap-alloc",
	"NoCompile":            "no-compile",
	"NoMVCC":               "no-mvcc",
	"Telemetry":            "metrics",
	"FlightRecorder":       "flight",
	"TraceSample":          "trace-sample",
	"SlowTraceUS":          "slow-threshold",
	"MetricsSample":        "metrics-sample",
}

// RegisterFlags registers one flag per Knobs field on fs and returns
// the Knobs the parsed flags populate. It is the only flag-registration
// site for engine knobs; sppbench, sppc and sppserver all consume it.
func RegisterFlags(fs *flag.FlagSet) *Knobs {
	k := &Knobs{}
	fs.IntVar(&k.NArenas, knobFlags["NArenas"], 0,
		"allocator arena count (0 = pool default)")
	fs.BoolVar(&k.DisableLaneAffinity, knobFlags["DisableLaneAffinity"], false,
		"disable the worker-affine lane cache")
	fs.BoolVar(&k.DisableRangeDedup, knobFlags["DisableRangeDedup"], false,
		"disable undo-range interval dedup in transactions")
	fs.BoolVar(&k.DisableFlushCoalesce, knobFlags["DisableFlushCoalesce"], false,
		"disable commit-time flush coalescing")
	fs.BoolVar(&k.DisableGroupFence, knobFlags["DisableGroupFence"], false,
		"disable the cross-lane group-fence combiner")
	fs.BoolVar(&k.DisableBitmapAlloc, knobFlags["DisableBitmapAlloc"], false,
		"disable the free-bitmap size-class pools; use map-based free lists")
	fs.BoolVar(&k.NoCompile, knobFlags["NoCompile"], false,
		"disable closure compilation; run every function in the reference interpreter")
	fs.BoolVar(&k.NoMVCC, knobFlags["NoMVCC"], false,
		"disable MVCC snapshot reads; kvstore reads take shard read locks (writes unchanged)")
	fs.BoolVar(&k.Telemetry, knobFlags["Telemetry"], false,
		"enable the telemetry metrics registry")
	fs.BoolVar(&k.FlightRecorder, knobFlags["FlightRecorder"], false,
		"enable the flight-recorder event ring")
	fs.IntVar(&k.TraceSample, knobFlags["TraceSample"], 0,
		"trace 1 in N served requests with a per-phase latency breakdown (0 = off)")
	fs.IntVar(&k.SlowTraceUS, knobFlags["SlowTraceUS"], 0,
		"capture traced requests at least this many µs slow as /debug/slow exemplars (0 = off)")
	fs.IntVar(&k.MetricsSample, knobFlags["MetricsSample"], 0,
		"sample 1 in N hook-counter increments, weighted (0 or 1 = exact)")
	return k
}
