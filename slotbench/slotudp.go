package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/core"
	"pandas/internal/wire"
)

const (
	udpNodes       = 64
	udpLoss        = 0.03 // simnet's default per-message loss
	udpSlotTimeout = 6 * time.Second
	udpMinSlots    = 6
	lagProbeEvery  = 10 * time.Millisecond
)

// slotUDPConfig is the paper's cell geometry (512 B cells, 8 + 8 custody
// lines, 73 samples, r = 8) scaled down to K = 32, so every line has 8
// holders among 64 nodes.
func slotUDPConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Blob = blob.Params{K: 32, CellBytes: 512, ProofBytes: 48}
	cfg.Assign = assign.Params{Rows: 8, Cols: 8, N: cfg.Blob.N()}
	cfg.RealPayloads = true
	return cfg
}

// nodeSlot is one node's view of a finished slot, read on its loop.
type nodeSlot struct {
	done     bool
	doneMs   float64
	crashed  bool
	m        core.NodeMetrics
	firstMs  float64 // first seed datagram, from the trigger (-1: none)
	consMs   float64 // custody consolidated, from the trigger (-1: not)
	checked  int
	mismatch string
}

func runSlotUDP(o options) (*runResult, error) {
	cfg := slotUDPConfig()
	epoch := time.Now()
	d, setupS, err := setupRepeated(func() (*deployment, error) {
		return newDeployment(cfg, udpNodes, o.seed, epoch, true, udpLoss)
	}, (*deployment).close)
	if err != nil {
		return nil, err
	}
	defer d.close()

	res := &runResult{metrics: map[string]float64{}}
	comp := completions{timeoutMs: ms(udpSlotTimeout)}
	var slotMs, tracedMs, untracedMs, prepMs, firstSendMs []float64
	var tracedComp, untracedComp completions
	tracedComp.timeoutMs, untracedComp.timeoutMs = comp.timeoutMs, comp.timeoutMs
	var counts nodeCounts
	var checked, tracedSlots, datagrams int
	var bytes, drops int64
	data := make([]byte, cfg.Blob.BlobBytes())

	slot := func(slot uint64, measured bool) error {
		traced := o.trace && measured && slot%2 == 0
		fillBlob(data, o.seed, slot)
		st := newSlotState(slot, udpNodes)
		d.run(func(e *endpoint) { e.beginSlot(st, traced) })
		d.bt.beginSlot(slot, traced)
		var stopLag chan struct{}
		var lagWG sync.WaitGroup
		drops0 := rcvbufErrors()
		if traced {
			stopLag = make(chan struct{})
			lagWG.Add(1)
			go probeLag(d.eps, stopLag, &lagWG)
		}

		begin := time.Now()
		bi := d.bt.rec.begin(spanBuilderSlot)
		_, err := d.builder.PrepareAndSeed(slot, data)
		d.bt.rec.end(bi)
		prep := time.Since(begin)
		if err != nil {
			return err
		}
		timer := time.NewTimer(udpSlotTimeout - time.Since(begin))
		select {
		case <-st.done:
		case <-timer.C:
		}
		timer.Stop()
		wall := time.Since(begin)
		if traced {
			close(stopLag)
			lagWG.Wait()
		}

		outs := make([]nodeSlot, udpNodes)
		d.run(func(e *endpoint) {
			ns := nodeSlot{done: e.finished && !e.doneAt.IsZero(), crashed: e.crashed, firstMs: -1, consMs: -1}
			if ns.done {
				ns.doneMs = ms(e.doneAt.Sub(begin))
			}
			if !e.crashed {
				ns.m = e.node.Metrics()
				ns.m.Rounds = append([]core.RoundStat(nil), ns.m.Rounds...)
				if ns.m.HasSeed {
					ns.firstMs = ms(e.clock0.Add(ns.m.FirstSeedAt).Sub(begin))
				}
				if ns.m.Consolidated {
					ns.consMs = ms(e.clock0.Add(ns.m.ConsolidatedAt).Sub(begin))
				}
				ns.checked, ns.mismatch = checkStore(e.node, d.builder, d.table, cfg.Blob.N())
			}
			outs[e.index] = ns
		})
		if !measured {
			return nil
		}
		slotMs = append(slotMs, ms(wall))
		prepMs = append(prepMs, ms(prep))
		datagrams += d.bt.datagrams
		bytes += d.bt.bytes
		side := &untracedComp
		if traced {
			tracedSlots++
			tracedMs = append(tracedMs, ms(wall))
			firstSendMs = append(firstSendMs, ms(d.bt.firstSend.Sub(begin)))
			if drops0 >= 0 {
				drops += rcvbufErrors() - drops0
			}
			side = &tracedComp
		} else {
			untracedMs = append(untracedMs, ms(wall))
		}
		for _, ns := range outs {
			res.attempted++
			res.check(ns.mismatch == "", "slot %d: %s", slot, ns.mismatch)
			checked += ns.checked
			if ns.done {
				comp.done(ns.doneMs)
				side.done(ns.doneMs)
			} else {
				res.failed++
				comp.timedOut()
				side.timedOut()
			}
			if !ns.crashed {
				counts.add(ns.m, ns.firstMs, ns.consMs)
			}
		}
		return nil
	}

	if err := slot(1, false); err != nil {
		return nil, err
	}
	var stopProfile func() (map[string]float64, error)
	if o.trace {
		if stopProfile, err = startProfile(o); err != nil {
			return nil, err
		}
	}
	slots, err := slotLoop(o.seconds, udpMinSlots, func(s uint64) error { return slot(s, true) })
	if err != nil {
		return nil, err
	}
	var cpu map[string]float64
	if stopProfile != nil {
		if cpu, err = stopProfile(); err != nil {
			return nil, err
		}
	}
	d.close() // stops every loop, so their recorders and lag samples can be read

	res.check(checked > 0, "no stored cell was compared with the builder's payload")
	within := comp.within(ms(cfg.Deadline))
	p50, _ := comp.quantile(0.5)
	p95, _ := comp.quantile(0.95)
	res.check(supported(comp.n(), 0.95), "p95 rests on %d samples beyond it", beyond(comp.n(), 0.95))
	m := res.metrics
	m["setup_s"] = setupS
	m["slot_ms"] = median(slotMs)
	m["complete_p50_ms"] = p50
	m["complete_p95_ms"] = p95
	m["deadline_share"] = ratio(float64(within), float64(comp.n()))
	m["peak_rss_mb"] = peakRSSMB()

	res.printf("workload slot-udp seed %d: %d nodes, K=%d, %d measured slots, %d node-slots, loss %.0f%% node-to-node",
		o.seed, udpNodes, cfg.Blob.K, slots, comp.n(), 100*udpLoss)
	res.printf("%-22s %10.4f s", "setup_s", setupS)
	res.report = append(res.report, fmtSlots("slot_ms", slotMs))
	res.printf("%-22s %10.2f ms   n=%d (PrepareAndSeed at K=%d)", "builder_slot_ms", median(prepMs), len(prepMs), cfg.Blob.K)
	res.printf("%-22s %10.4f ratio %d of %d node-slots within %v", "deadline_share", m["deadline_share"], within, comp.n(), cfg.Deadline)
	res.report = append(res.report, fmtQuantile("sample_p50_ms", &comp, 0.5), fmtQuantile("sample_p95_ms", &comp, 0.95))
	res.printf("%-22s %10.4f ratio %d of %d node-slots unsampled at %v or crashed", "failed_share", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted, udpSlotTimeout)
	res.printf("%-22s %10.1f MB", "peak_rss_mb", m["peak_rss_mb"])
	res.printf("output check: %d stored cells matched the builder's payload byte for byte", checked)

	if !o.trace {
		return res, nil
	}
	var tot spanTotals
	recs := []*recorder{d.bt.rec}
	var lags []float64
	sends, panics := 0, 0
	var msgs [numMsgKinds][]wire.Message
	addCaptured(&msgs, &d.bt.captured)
	for _, e := range d.eps {
		recs = append(recs, e.rec)
		sends += e.sends
		panics += e.panics
		for _, l := range e.lags {
			lags = append(lags, ms(l))
		}
		addCaptured(&msgs, &e.captured)
		if e.panicMsg != "" {
			res.printf("node %d panicked: %s", e.index, e.panicMsg)
		}
	}
	for _, r := range recs {
		tot.add(r.spans)
	}
	nodeSlots := float64(tracedSlots * udpNodes)
	m["builder.first_send_ms"] = median(firstSendMs)
	m["builder.send_ms"] = ratio(float64(tot.self[spanBuilderSend]), float64(tracedSlots)*1e6)
	m["builder.wait_ms"] = ratio(float64(tot.total[spanBuilderWait]), float64(tracedSlots)*1e6)
	m["builder.datagrams"] = ratio(float64(datagrams), float64(slots))
	m["builder.bytes"] = ratio(float64(bytes), float64(slots))
	m["transport.send_us"] = tot.perCall(spanSend, time.Microsecond)
	m["transport.sends"] = ratio(float64(sends), nodeSlots)
	m["transport.rcvbuf_drops"] = ratio(float64(drops), float64(tracedSlots))
	m["transport.loop_lag_p50_ms"] = quantileOf(lags, 0.5)
	m["transport.loop_lag_p99_ms"] = quantileOf(lags, 0.99)
	m["node.seed_handle_us"] = tot.perCall(spanSeedHandle, time.Microsecond)
	m["node.query_handle_us"] = tot.perCall(spanQueryHandle, time.Microsecond)
	m["node.response_handle_us"] = tot.perCall(spanResponseHandle, time.Microsecond)
	m["node.timer_ms"] = ratio(float64(tot.self[spanTimer]), nodeSlots*1e6)
	m["node.panics"] = float64(panics)
	counts.metrics(m)
	m["simnet.events"], m["simnet.events_per_s"], m["simnet.dropped"] = 0, 0, 0
	m["trace.overhead_pct"] = 100 * (ratio(median(tracedMs), median(untracedMs)) - 1)
	for k, v := range cpu {
		m["cpu."+k] = v
	}
	if err := replayLayers(res, cfg.Blob, data, msgs); err != nil {
		return nil, err
	}
	tp50, _ := tracedComp.quantile(0.5)
	up50, _ := untracedComp.quantile(0.5)
	res.printf("tracing overhead: slot_ms %.2f traced vs %.2f untraced (%+.1f%%), sample_p50_ms %.2f vs %.2f (%+.1f%%)",
		median(tracedMs), median(untracedMs), m["trace.overhead_pct"], tp50, up50, 100*(ratio(tp50, up50)-1))
	printBudget(res, &tot, tracedSlots)
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.csv.gz", o.workload, o.seed))
	if err := writeSpans(path, recs); err != nil {
		return nil, err
	}
	res.printf("spans written to %s", path)
	return res, nil
}

// probeLag posts a closure to every node's event loop each
// lagProbeEvery and records how long it waited to run.
func probeLag(eps []*endpoint, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(lagProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			for _, e := range eps {
				e := e
				posted := time.Now()
				e.udp.Run(func() { e.lags = append(e.lags, time.Since(posted)) })
			}
		}
	}
}

// printBudget prints each layer's self time per slot, largest first:
// the traced run's answer to which layer takes most of a slot.
func printBudget(res *runResult, tot *spanTotals, slots int) {
	type row struct {
		name string
		ms   float64
		n    int
	}
	var rows []row
	for k := spanKind(0); k < numSpanKinds; k++ {
		if tot.count[k] > 0 && k != spanBuilderSlot {
			rows = append(rows, row{spanNames[k], ratio(float64(tot.self[k]), float64(slots)*1e6), tot.count[k] / max(slots, 1)})
		}
	}
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].ms > rows[j-1].ms; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	res.printf("layer budget (self time per slot, summed over endpoints; wall time, so preemption on a busy CPU counts):")
	for _, r := range rows {
		res.printf("  %-22s %10.2f ms/slot  %8d calls/slot", r.name, r.ms, r.n)
	}
}

// nodeCounts accumulates core.Node counters over node-slots.
type nodeCounts struct {
	nodeSlots                    int
	rounds, fetchMsgs            int
	fetchBytes                   int64
	dups, fetchCells             int
	seedDups, seedCells, rebuilt int
	firstSeedMs, consolidationMs []float64
}

func (c *nodeCounts) add(m core.NodeMetrics, firstMs, consMs float64) {
	c.nodeSlots++
	c.rounds += len(m.Rounds)
	c.fetchMsgs += m.FetchMsgsSent + m.FetchMsgsRecv
	c.fetchBytes += m.FetchBytesSent + m.FetchBytesRecv
	for _, r := range m.Rounds {
		c.dups += r.Duplicates
		c.fetchCells += r.CellsInRound + r.CellsAfterRound
		c.rebuilt += r.Reconstructed
	}
	c.seedDups += m.SeedDuplicates
	c.seedCells += m.SeedCells
	if firstMs >= 0 {
		c.firstSeedMs = append(c.firstSeedMs, firstMs)
	}
	if consMs >= 0 {
		c.consolidationMs = append(c.consolidationMs, consMs)
	}
}

func (c *nodeCounts) metrics(m map[string]float64) {
	n := float64(c.nodeSlots)
	m["node.rounds"] = ratio(float64(c.rounds), n)
	m["node.fetch_msgs"] = ratio(float64(c.fetchMsgs), n)
	m["node.fetch_bytes"] = ratio(float64(c.fetchBytes), n)
	m["node.dup_ratio"] = ratio(float64(c.dups), float64(c.fetchCells))
	m["node.seed_dup_ratio"] = ratio(float64(c.seedDups), float64(c.seedCells))
	m["node.reconstructed_cells"] = ratio(float64(c.rebuilt), n)
	m["node.first_seed_ms"] = median(c.firstSeedMs)
	m["node.consolidation_ms"] = median(c.consolidationMs)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantileOf returns the nearest-rank q-quantile of xs.
func quantileOf(xs []float64, q float64) float64 {
	c := completions{ms: xs}
	v, _ := c.quantile(q)
	return v
}
