package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the recorder started. req numbers client requests
// (0 for in-process calls); the client keeps the trace ID it minted
// for the server to itself, so req is the benchmark's own sequence.
type span struct {
	id, parent uint64
	req        uint64
	name       string
	start, end int64
}

// recorder keeps the spans of a traced run in memory until exit. A nil
// recorder records nothing, so untraced runs pay one nil check.
type recorder struct {
	t0  time.Time
	ids atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// spanBuf collects one goroutine's spans without locking; flush hands
// them to the recorder.
type spanBuf struct {
	r     *recorder
	spans []span
}

func (r *recorder) buf() *spanBuf {
	if r == nil {
		return nil
	}
	return &spanBuf{r: r}
}

// add records a span from t0 to t1 and returns its id.
func (b *spanBuf) add(name string, parent, req uint64, t0, t1 time.Time) uint64 {
	if b == nil {
		return 0
	}
	id := b.r.ids.Add(1)
	b.spans = append(b.spans, span{id: id, parent: parent, req: req, name: name,
		start: int64(t0.Sub(b.r.t0)), end: int64(t1.Sub(b.r.t0))})
	return id
}

// open reserves an id for a span whose end is not known yet, so
// children can name it as parent; close records it.
func (b *spanBuf) open() (uint64, time.Time) {
	if b == nil {
		return 0, time.Time{}
	}
	return b.r.ids.Add(1), time.Now()
}

func (b *spanBuf) close(id uint64, name string, parent uint64, t0 time.Time) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{id: id, parent: parent, name: name,
		start: int64(t0.Sub(b.r.t0)), end: int64(time.Since(b.r.t0))})
}

func (b *spanBuf) flush() {
	if b == nil {
		return
	}
	b.r.mu.Lock()
	b.r.spans = append(b.r.spans, b.spans...)
	b.r.mu.Unlock()
	b.spans = nil
}

// write stores the spans as JSON lines in path.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
