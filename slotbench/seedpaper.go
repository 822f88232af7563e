package main

import (
	"fmt"
	"path/filepath"
	"time"

	"pandas/internal/assign"
	"pandas/internal/core"
	"pandas/internal/wire"
)

const (
	seedReceivers   = 64
	seedSlotTimeout = 6 * time.Second
	seedMinSlots    = 4
	drainLimit      = time.Second
)

// seedPaperConfig is the paper's full geometry (K = 256: a 32 MB blob
// extended to 512x512 cells of 512 B, r = 8) with 64 + 64 custody lines
// per receiver, so 64 receivers give every line 8 holders and every copy
// of every cell is sent.
func seedPaperConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Assign = assign.Params{Rows: 64, Cols: 64, N: cfg.Blob.N()}
	cfg.RealPayloads = true
	return cfg
}

func runSeedPaper(o options) (*runResult, error) {
	cfg := seedPaperConfig()
	epoch := time.Now()
	d, setupS, err := setupRepeated(func() (*deployment, error) {
		return newDeployment(cfg, seedReceivers, o.seed, epoch, false, 0)
	}, (*deployment).close)
	if err != nil {
		return nil, err
	}
	defer d.close()

	res := &runResult{metrics: map[string]float64{}}
	comp := completions{timeoutMs: ms(seedSlotTimeout)}
	var builderMs, tracedMs, untracedMs, firstSendMs, goodput []float64
	var verified, stray, cells int64
	var datagrams, tracedSlots int
	var bytes, drops int64
	data := make([]byte, cfg.Blob.BlobBytes())

	slot := func(slot uint64, measured bool) error {
		traced := o.trace && measured && slot%2 == 0
		fillBlob(data, o.seed, slot)
		st := newSlotState(slot, 0)
		d.run(func(e *endpoint) { e.beginSlot(st, traced) })
		d.bt.beginSlot(slot, traced)
		drops0 := rcvbufErrors()

		begin := time.Now()
		bi := d.bt.rec.begin(spanBuilderSlot)
		_, err := d.builder.PrepareAndSeed(slot, data)
		d.bt.rec.end(bi)
		wall := time.Since(begin)
		if err != nil {
			return err
		}
		// Drain: wait until every receiver has handled what was sent to
		// it, or has gone quiet for drainLimit.
		for t0 := time.Now(); time.Since(t0) < drainLimit; time.Sleep(time.Millisecond) {
			pending := false
			for i, e := range d.eps {
				if d.bt.sentTo[i]-d.bt.writtenOff[i] > e.handled.Load() {
					pending = true
					break
				}
			}
			if !pending {
				break
			}
		}
		rx := make([]rxCounters, seedReceivers)
		d.run(func(e *endpoint) { rx[e.index] = e.rx })
		if !measured {
			return nil
		}
		commit := d.builder.Commitment()
		var slotCells int64
		for i, r := range rx {
			sent := d.bt.slotSent[i]
			res.attempted += int(sent)
			res.failed += int(sent - r.datagrams)
			slotCells += r.cells
			verified += r.verified
			stray += r.stray
			res.check(r.badProofs == 0, "slot %d receiver %d: %d spot-checked cells fail kzg.Verify", slot, i, r.badProofs)
			res.check(r.datagrams == 0 || (r.commits == 1 && r.commit == commit),
				"slot %d receiver %d: seeds carry %d commitments, not the slot's", slot, i, r.commits)
			if r.datagrams == sent && sent > 0 {
				comp.done(ms(r.lastAt.Sub(begin)))
			} else {
				comp.timedOut()
			}
		}
		cells += slotCells
		builderMs = append(builderMs, ms(wall))
		goodput = append(goodput, float64(slotCells)*float64(cfg.Blob.CellBytes)/wall.Seconds()/1e6)
		datagrams += d.bt.datagrams
		bytes += d.bt.bytes
		if traced {
			tracedSlots++
			tracedMs = append(tracedMs, ms(wall))
			firstSendMs = append(firstSendMs, ms(d.bt.firstSend.Sub(begin)))
			if drops0 >= 0 {
				drops += rcvbufErrors() - drops0
			}
		} else {
			untracedMs = append(untracedMs, ms(wall))
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
	slots, err := slotLoop(o.seconds, seedMinSlots, func(s uint64) error { return slot(s, true) })
	if err != nil {
		return nil, err
	}
	var cpu map[string]float64
	if stopProfile != nil {
		if cpu, err = stopProfile(); err != nil {
			return nil, err
		}
	}
	d.close()

	res.check(verified > 0, "no seed cell was spot-checked")
	res.check(supported(comp.n(), 0.95), "p95 rests on %d samples beyond it", beyond(comp.n(), 0.95))
	p50, _ := comp.quantile(0.5)
	p95, _ := comp.quantile(0.95)
	within := comp.within(ms(cfg.Deadline))
	m := res.metrics
	m["setup_s"] = setupS
	m["slot_ms"] = median(builderMs)
	m["complete_p50_ms"] = p50
	m["complete_p95_ms"] = p95
	m["deadline_share"] = ratio(float64(within), float64(comp.n()))
	m["peak_rss_mb"] = peakRSSMB()

	res.printf("workload seed-paper seed %d: K=%d (%dx%d cells of %d B), r=%d, %d receivers, %d measured slots",
		o.seed, cfg.Blob.K, cfg.Blob.N(), cfg.Blob.N(), cfg.Blob.CellBytes, cfg.Redundancy, seedReceivers, slots)
	res.printf("%-22s %10.4f s", "setup_s", setupS)
	res.report = append(res.report, fmtSlots("builder_slot_ms", builderMs))
	res.printf("%-22s %10.1f MB/s n=%d (seed payload decoded at receivers per builder second)", "seed_goodput_mb_s", median(goodput), len(goodput))
	res.printf("%-22s %10.4f ratio %d of %d receiver-slots got their whole seed batch within %v", "deadline_share", m["deadline_share"], within, comp.n(), cfg.Deadline)
	res.report = append(res.report, fmtQuantile("seed_complete_p50_ms", &comp, 0.5), fmtQuantile("seed_complete_p95_ms", &comp, 0.95))
	res.printf("%-22s %10.6f ratio %d of %d seed datagrams never reached a receiver's handler", "failed_share", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	res.printf("%-22s %10.1f MB", "peak_rss_mb", m["peak_rss_mb"])
	res.printf("output check: %d spot-checked seed cells verified against the slot's commitment (%d cells delivered, %d stray datagrams)", verified, cells, stray)

	if !o.trace {
		return res, nil
	}
	var tot spanTotals
	recs := []*recorder{d.bt.rec}
	for _, e := range d.eps {
		recs = append(recs, e.rec)
	}
	for _, r := range recs {
		tot.add(r.spans)
	}
	m["builder.first_send_ms"] = median(firstSendMs)
	m["builder.send_ms"] = ratio(float64(tot.self[spanBuilderSend]), float64(tracedSlots)*1e6)
	m["builder.wait_ms"] = ratio(float64(tot.total[spanBuilderWait]), float64(tracedSlots)*1e6)
	m["builder.datagrams"] = ratio(float64(datagrams), float64(slots))
	m["builder.bytes"] = ratio(float64(bytes), float64(slots))
	m["transport.send_us"], m["transport.sends"] = 0, 0
	m["transport.rcvbuf_drops"] = ratio(float64(drops), float64(tracedSlots))
	m["transport.loop_lag_p50_ms"], m["transport.loop_lag_p99_ms"] = 0, 0
	var none nodeCounts
	none.metrics(m)
	for _, k := range []string{"node.seed_handle_us", "node.query_handle_us", "node.response_handle_us", "node.timer_ms", "node.panics",
		"simnet.events", "simnet.events_per_s", "simnet.dropped"} {
		m[k] = 0
	}
	m["trace.overhead_pct"] = 100 * (ratio(median(tracedMs), median(untracedMs)) - 1)
	for k, v := range cpu {
		m["cpu."+k] = v
	}
	var msgs [numMsgKinds][]wire.Message
	addCaptured(&msgs, &d.bt.captured)
	if err := replayLayers(res, cfg.Blob, data, msgs); err != nil {
		return nil, err
	}
	res.printf("tracing overhead: builder_slot_ms %.2f traced vs %.2f untraced (%+.1f%%)",
		median(tracedMs), median(untracedMs), m["trace.overhead_pct"])
	res.printf("receiver seed handling: %.1f us per datagram", tot.perCall(spanSeedHandle, time.Microsecond))
	printBudget(res, &tot, tracedSlots)
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.csv.gz", o.workload, o.seed))
	if err := writeSpans(path, recs); err != nil {
		return nil, err
	}
	res.printf("spans written to %s", path)
	return res, nil
}
