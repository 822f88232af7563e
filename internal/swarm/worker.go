package swarm

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"pandas/internal/core"
	"pandas/internal/obsv"
	"pandas/internal/transport"
	"pandas/internal/wire"
)

// WorkerOptions configures one swarm worker process.
type WorkerOptions struct {
	Supervisor string    // supervisor control address (host:port)
	Index      int       // this worker's index; N (the highest) is the builder
	Restarts   int       // how many times this index has been restarted (from EnvRestarts)
	Log        io.Writer // diagnostics; nil discards
	Stdout     io.Writer // readiness line; nil = os.Stdout
}

// RestartsFromEnv reads the supervisor-provided restart count.
func RestartsFromEnv() int {
	n, err := strconv.Atoi(os.Getenv(EnvRestarts))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// worker is the running state of one swarm participant.
type worker struct {
	o    WorkerOptions
	log  io.Writer
	ctrl *controlClient
	ep   *transport.UDP
	disc *discovery

	node    *core.Node
	builder *core.Builder
	deploy  *core.Deployment // the builder's per-slot blob source
	reg     *obsv.Registry

	total       int // nodes + builder
	deadline    time.Duration
	metricsAddr string

	curSlot atomic.Uint64 // latest slot started (0 = none)
	ready   atomic.Bool
	epUp    atomic.Bool

	starts chan uint64
	stop   chan struct{}
}

// RunWorker is the entry point for a pandas-node process launched in
// swarm mode (-swarm ADDR -index I). It registers with the supervisor,
// receives its geometry and bootstrap peers, crawls the rest of the
// swarm over UDP, reports ready, then executes Start commands until
// told to drain (SIGTERM/SIGINT) or the supervisor disappears.
func RunWorker(o WorkerOptions) error {
	w := &worker{
		o:      o,
		log:    o.Log,
		starts: make(chan uint64, 64),
		stop:   make(chan struct{}),
	}
	if w.log == nil {
		w.log = io.Discard
	}
	stdout := o.Stdout
	if stdout == nil {
		stdout = os.Stdout
	}

	ctrl, err := newControlClient(o.Supervisor, w.onStart, w.onConfig)
	if err != nil {
		return err
	}
	defer ctrl.Close()
	w.ctrl = ctrl

	// Bind the data socket before the first Hello: the supervisor needs
	// its address to hand out as a bootstrap entry. The codec cell size
	// is fixed later, when the geometry arrives.
	ep, err := transport.NewUDP(o.Index, "127.0.0.1:0", 0)
	if err != nil {
		return err
	}
	defer ep.Close()
	w.ep = ep

	// Per-worker metrics endpoint, scraped by the supervisor at harvest.
	w.reg = obsv.NewRegistry()
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer mln.Close()
	w.metricsAddr = mln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = w.snapshot().WritePrometheus(rw)
	})
	go func() { _ = http.Serve(mln, mux) }()
	w.reg.Counter("worker_restarts_total").Add(int64(o.Restarts))

	// Register: Hello carries our socket addresses, the WorkerConfig
	// reply carries geometry, deployment shape, and bootstrap peers.
	cfgMsg, err := ctrl.hello(w.helloMsg())
	if err != nil {
		return fmt.Errorf("swarm: worker %d: registration: %w", o.Index, err)
	}
	if err := w.init(cfgMsg); err != nil {
		return err
	}

	// Heartbeats double as liveness and bootstrap refresh (every reply
	// is a fresh WorkerConfig whose entries onConfig merges).
	go w.heartbeatLoop()
	// Discovery: crawl until the table is complete, announce once more
	// so everyone holds our first-hand binding, then report ready.
	go w.discoveryLoop(stdout)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)

	var lastSlot uint64
	for {
		select {
		case sig := <-sigc:
			// Graceful drain: stop loops, close sockets, flush a final
			// metrics snapshot to the log, exit cleanly.
			fmt.Fprintf(w.log, "worker %d: draining on %v\n", o.Index, sig)
			close(w.stop)
			_ = w.snapshot().WritePrometheus(w.log)
			return nil
		case s := <-w.starts:
			if s <= lastSlot {
				continue // duplicate Start (control-plane retry)
			}
			lastSlot = s
			w.runSlot(s)
		}
	}
}

// onStart runs on the control read loop: queue the slot for the main
// loop (duplicates are filtered there).
func (w *worker) onStart(slot uint64) {
	select {
	case w.starts <- slot:
	default:
	}
}

// onConfig runs on the control read loop for every WorkerConfig,
// including heartbeat replies: merge any bootstrap entries we lack. The
// supervisor's bindings come from the workers' own Hellos, so they are
// authoritative and may rebind.
func (w *worker) onConfig(m *wire.WorkerConfig) {
	if !w.epUp.Load() {
		return
	}
	for _, e := range m.Bootstrap {
		if int(e.Index) != w.o.Index && e.Addr != "" {
			_ = w.ep.AddPeer(int(e.Index), e.Addr)
		}
	}
}

// snapshot is the worker's metrics plus its data endpoint's drop
// counters.
func (w *worker) snapshot() obsv.Snapshot {
	snap := w.reg.Snapshot()
	w.ep.Stats().AddTo(snap.Counters)
	return snap
}

func (w *worker) helloMsg() *wire.Hello {
	return &wire.Hello{
		Slot:        w.curSlot.Load(),
		Index:       uint32(w.o.Index),
		Ready:       w.ready.Load(),
		Known:       uint32(w.ep.Known()),
		DataAddr:    w.ep.Addr(),
		MetricsAddr: w.metricsAddr,
	}
}

// init expands the WorkerConfig into a running protocol participant.
func (w *worker) init(m *wire.WorkerConfig) error {
	nNodes := int(m.NumNodes)
	w.total = nNodes + 1
	if w.o.Index >= w.total {
		return fmt.Errorf("swarm: worker index %d out of range (%d nodes + builder)", w.o.Index, nNodes)
	}
	g := geometryFromWire(m)
	cfg, err := g.CoreConfig()
	if err != nil {
		return fmt.Errorf("swarm: worker %d: bad geometry: %w", w.o.Index, err)
	}
	cfg.Metrics = w.reg
	w.deadline = cfg.Deadline

	w.ep.SetCellBytes(cfg.Blob.CellBytes)
	addrs := make([]string, w.total)
	addrs[w.o.Index] = w.ep.Addr()
	if err := w.ep.SetPeers(addrs); err != nil {
		return err
	}
	for _, e := range m.Bootstrap {
		if int(e.Index) != w.o.Index && e.Addr != "" {
			_ = w.ep.AddPeer(int(e.Index), e.Addr)
		}
	}

	d, err := core.NewDeployment(cfg, nNodes, m.Seed)
	if err != nil {
		return err
	}
	w.disc = newDiscovery(w.ep, w.o.Index, w.total)
	if w.o.Index == nNodes { // the last index is the builder
		if w.builder, err = d.Builder(w.ep); err != nil {
			return err
		}
		w.deploy = d
	} else {
		w.node = d.Node(w.o.Index, w.ep)
	}

	w.ep.SetUnknownSender(w.disc.handleUnknown)
	w.ep.Start(func(from, size int, payload any) {
		if w.disc.handle(from, size, payload) {
			return
		}
		if w.node != nil {
			w.node.HandleMessage(from, size, payload)
		}
	})
	w.epUp.Store(true)
	fmt.Fprintf(w.log, "worker %d: data %s metrics %s (%d nodes + builder, restart %d)\n",
		w.o.Index, w.ep.Addr(), w.metricsAddr, nNodes, w.o.Restarts)
	return nil
}

func (w *worker) heartbeatLoop() {
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.ctrl.heartbeat(w.helloMsg())
		}
	}
}

func (w *worker) discoveryLoop(stdout io.Writer) {
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	announced := false
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
		conv := make(chan bool, 1)
		w.ep.Run(func() {
			w.disc.round()
			conv <- w.disc.converged()
		})
		select {
		case done := <-conv:
			if !done {
				announced = false
				continue
			}
			if !announced {
				announced = true // one extra announce round after convergence
				continue
			}
			if w.ready.CompareAndSwap(false, true) {
				fmt.Fprintf(stdout, "ready index=%d addr=%s peers=%d\n",
					w.o.Index, w.ep.Addr(), w.ep.Known())
				w.ctrl.heartbeat(w.helloMsg())
			}
			return
		case <-w.stop:
			return
		}
	}
}

// runSlot executes one Start command. Builders seed; nodes start the
// slot and poll for completion, then report back.
func (w *worker) runSlot(slot uint64) {
	w.curSlot.Store(slot)
	if w.builder != nil {
		w.ep.Run(func() {
			rep, err := w.builder.PrepareAndSeed(slot, w.deploy.Filler())
			if err != nil {
				fmt.Fprintf(w.log, "worker %d: slot %d: %v\n", w.o.Index, slot, err)
				return
			}
			fmt.Fprintf(w.log, "worker %d: slot %d seeded %d cells in %d msgs\n",
				w.o.Index, slot, rep.Cells, rep.Messages)
			w.reg.Counter("builder_seed_cells_total").Add(int64(rep.Cells))
			w.reg.Counter("builder_seed_bytes_total").Add(rep.Bytes)
			r := &wire.Report{
				Slot:       slot,
				Index:      uint32(w.o.Index),
				Builder:    true,
				SeedCells:  uint32(rep.Cells),
				FetchMsgs:  uint32(rep.Messages),
				FetchBytes: uint64(rep.Bytes),
				Restarts:   uint32(w.o.Restarts),
			}
			r.FirstSeedUs, r.ConsolidatedUs, r.SampledUs = -1, -1, -1
			go func() { _ = w.ctrl.report(r) }()
		})
		return
	}
	w.ep.Run(func() {
		start := w.ep.Now()
		w.node.StartSlot(slot)
		w.pollSlot(slot, start)
	})
}

// pollSlot runs on the event loop every 50 ms until the slot completes
// (or far overruns the deadline), then reports the outcome.
func (w *worker) pollSlot(slot uint64, start time.Duration) {
	if w.curSlot.Load() != slot {
		return // superseded by a newer Start
	}
	m := w.node.Metrics()
	done := m.Sampled && m.Consolidated
	if !done && w.ep.Now()-start < w.deadline+2*time.Second {
		w.ep.After(50*time.Millisecond, func() { w.pollSlot(slot, start) })
		return
	}
	if done {
		w.reg.Counter("node_slots_completed_total").Inc()
		w.reg.Histogram("node_sampling_seconds", obsv.DefaultLatencyBounds).
			Observe((m.SampledAt - start).Seconds())
	} else {
		w.reg.Counter("node_slots_incomplete_total").Inc()
	}
	rel := func(at time.Duration, ok bool) int64 {
		if !ok {
			return -1
		}
		return (at - start).Microseconds()
	}
	r := &wire.Report{
		Slot:           slot,
		Index:          uint32(w.o.Index),
		HasSeed:        m.HasSeed,
		Consolidated:   m.Consolidated,
		Sampled:        m.Sampled,
		FirstSeedUs:    rel(m.FirstSeedAt, m.HasSeed),
		ConsolidatedUs: rel(m.ConsolidatedAt, m.Consolidated),
		SampledUs:      rel(m.SampledAt, m.Sampled),
		SeedCells:      uint32(m.SeedCells),
		FetchMsgs:      uint32(m.FetchMsgsSent + m.FetchMsgsRecv),
		FetchBytes:     uint64(m.FetchBytesSent + m.FetchBytesRecv),
		CorruptRejects: uint32(m.CorruptRejects),
		Restarts:       uint32(w.o.Restarts),
	}
	fmt.Fprintf(w.log, "worker %d: slot %d seed=%v cons=%v sampled=%v\n",
		w.o.Index, slot, m.HasSeed, m.Consolidated, m.Sampled)
	go func() { _ = w.ctrl.report(r) }()
}
