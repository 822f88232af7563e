package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanKind names a layer boundary the benchmark's wrappers time.
type spanKind uint8

const (
	spanBuilderSlot    spanKind = iota // one PrepareAndSeed call
	spanBuilderSend                    // one builder SendReliable (encode + sendto)
	spanBuilderWait                    // receiver back-pressure inside a builder send
	spanSend                           // one node-side Send / SendReliable
	spanSeedHandle                     // node handler on a Seed
	spanQueryHandle                    // node handler on a Query
	spanResponseHandle                 // node handler on a Response
	spanTimer                          // node timer callback (fetch rounds, flushes)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"builder.slot", "builder.send", "builder.wait", "transport.send",
	"node.seed_handle", "node.query_handle", "node.response_handle", "node.timer",
}

// span is one timed interval. Times are nanoseconds since the run's
// epoch; parent indexes the same recorder's spans (-1: root).
type span struct {
	start, end int64
	parent     int32
	slot       uint32
	kind       spanKind
}

// recorder keeps the spans of one goroutine (an endpoint's event loop or
// the builder's caller) in memory. It is not safe for concurrent use;
// the owner reads it once that goroutine has stopped.
type recorder struct {
	on    bool
	slot  uint32
	epoch time.Time
	spans []span
	open  []int32 // stack of unfinished spans
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// begin opens a span nested in the innermost open one; it returns -1,
// and records nothing, while the recorder is off.
func (r *recorder) begin(k spanKind) int32 {
	if !r.on {
		return -1
	}
	parent := int32(-1)
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{start: int64(time.Since(r.epoch)), parent: parent, slot: r.slot, kind: k})
	r.open = append(r.open, i)
	return i
}

// end closes span i (a no-op for -1) and any span still open inside it,
// which a recovered panic can leave behind.
func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	for len(r.open) > 0 {
		j := r.open[len(r.open)-1]
		r.open = r.open[:len(r.open)-1]
		r.spans[j].end = now
		if j == i {
			return
		}
	}
}

// selfTimes returns each span's duration minus the part of it covered by
// its children. Children are clipped to the parent's interval and their
// overlaps merged, so a child that starts before its parent or ends
// after it, or two children that overlap, are not subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range spans {
		self[i] = s.end - s.start
		ivs = ivs[:0]
		for _, c := range children[i] {
			a, b := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach int64
		reach = s.start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] -= covered
	}
	return self
}

// spanTotals aggregates spans by kind.
type spanTotals struct {
	count [numSpanKinds]int
	self  [numSpanKinds]int64 // ns
	total [numSpanKinds]int64 // ns, children included
}

func (t *spanTotals) add(spans []span) {
	self := selfTimes(spans)
	for i, s := range spans {
		t.count[s.kind]++
		t.self[s.kind] += self[i]
		t.total[s.kind] += s.end - s.start
	}
}

// perCall returns the mean self time of one kind in the given unit.
func (t *spanTotals) perCall(k spanKind, unit time.Duration) float64 {
	return ratio(float64(t.self[k]), float64(t.count[k])*float64(unit))
}

// writeSpans dumps every recorder's spans as gzipped CSV, one row per
// span: recorder, index, name, slot, parent, start_ns, end_ns.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "recorder,index,name,slot,parent,start_ns,end_ns")
	for ri, r := range recs {
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", ri, i, spanNames[s.kind], s.slot, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
