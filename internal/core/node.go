package core

import (
	"crypto/ed25519"
	"errors"
	"math/rand"
	"sort"
	"time"

	"pandas/internal/blob"
	"pandas/internal/fetch"
	"pandas/internal/ids"
	"pandas/internal/membership"
	"pandas/internal/obsv"
	"pandas/internal/wire"
)

// LivenessRecorder is the node-side contract of peer-liveness scoring:
// the fetcher reports per-peer query outcomes and consults queryability
// and penalties when scoring candidates. Implemented by
// membership.Scorer.
type LivenessRecorder interface {
	fetch.Liveness
	// ReportTimeout records that a query to the peer expired unanswered.
	ReportTimeout(peer int)
	// ReportSuccess records a response from the peer.
	ReportSuccess(peer int)
	// ReportGarbage records that the peer served cells failing proof
	// verification — worse than a timeout: the peer is alive and lying.
	ReportGarbage(peer int)
}

// RoundStat captures the fetching progress of one node during one round,
// the quantities reported in Table 1 of the paper. It is an alias of
// obsv.RoundStat: the observability layer owns the definition and core
// re-exports it so existing call sites keep compiling.
type RoundStat = obsv.RoundStat

// NodeMetrics aggregates one node's per-slot observations. It is an
// alias of obsv.NodeView: the live view maintained by the node's
// obsv.Observer is the single source of truth, and Node.Metrics()
// returns a copy of it.
type NodeMetrics = obsv.NodeView

// inflightTTL is how long an unanswered query still counts toward a
// cell's redundancy target before other peers are asked instead. Queried
// peers that lack a cell buffer the request and reply once their own
// seeding/consolidation delivers it — typically within the builder's
// ~1 s transmission window — so expiring earlier only produces duplicate
// deliveries, while expiring much later delays recovery from genuinely
// lost responses.
const inflightTTL = 1600 * time.Millisecond

// flushDelay is the coalescing window for replies to buffered queries.
const flushDelay = 25 * time.Millisecond

type boostParcel struct {
	line  blob.Line
	start int
	count int
}

// Node is one PANDAS participant: it custodies assigned rows/columns,
// consolidates them from peers, answers custody queries, and samples
// random cells — all per slot.
type Node struct {
	cfg   Config
	index int
	table *Table
	tr    Transport
	rng   *rand.Rand

	// view reports whether a peer is in this node's (possibly incomplete
	// and possibly evolving) view; nil means the full view.
	view membership.View

	// liveness scores peer responsiveness; nil disables scoring (the
	// static-membership configuration).
	liveness LivenessRecorder

	// verifySeeds enables proposer-signature checks on seed messages.
	verifySeeds bool
	proposerPub ed25519.PublicKey

	// Per-slot state. The maps are cleared and reused across slots (and
	// the store reset in place) instead of reallocated: per-slot garbage
	// is what caps how many nodes fit in one process.
	slot       uint64
	store      *Store
	samples    []blob.CellID
	pendingSmp map[blob.CellID]bool
	boost      map[int][]boostParcel
	queried    map[int]bool
	queryRound map[int]int
	buffered   map[blob.CellID]map[int]bool
	round      int
	lastRearm  int
	roundEnds  []time.Duration
	fetching   bool
	seedTimer  bool
	seedChunks int
	seedDone   bool
	// promised holds cells the builder's CB map says are being seeded to
	// THIS node; they are excluded from fetching until the seed batch
	// completes or goes quiet (pipelining: fetch what peers have while
	// the builder is still transmitting, without re-requesting what is
	// already on its way).
	promised map[blob.CellID]bool
	// outstanding maps cells with in-flight queries to the expiry times
	// of those queries; unexpired entries count toward the redundancy
	// target so rounds do not re-request what is already on its way.
	outstanding map[blob.CellID][]time.Duration
	// pendingOut coalesces responses to buffered queries: cells often
	// land in bursts (seed chunks, reconstruction), and answering each
	// arrival individually would multiply message counts. A short timer
	// flushes the batch.
	pendingOut map[int][]wire.Cell
	flushArmed bool
	// cbSeeded records, per assigned line, which positions the builder's
	// CB map says were seeded SOMEWHERE; those are the cheap cells to
	// fetch and are preferred when choosing which missing cells to
	// request. Positions are a bitset (one word per 64 line positions).
	cbSeeded map[blob.Line][]uint64
	// awaitReply tracks, per queried peer, the deadline by which SOME
	// response must arrive before the peer is reported to the liveness
	// scorer as timed out. Only maintained when liveness is set.
	awaitReply map[int]time.Duration
	// badPeers bans, for the rest of the slot, peers that served cells
	// failing proof verification: unlike a timeout (which exponential
	// backoff forgives), a bad proof is cryptographic evidence of
	// misbehavior, so the planner never asks the peer again this slot —
	// including across the periodic queried-set re-arm sweeps.
	badPeers map[int]bool
	// gen invalidates timers armed for an earlier lifetime of this node:
	// it increments on every StartSlot, so a node that crashes and
	// restarts within the same slot does not execute stale callbacks.
	gen uint64

	// Scratch buffers reused across calls on the event-loop hot paths
	// (drawSamples, addCells, missingCells, planRound). All are cleared
	// before use; none escape the call that fills them.
	drawSeen     map[int]bool
	touchedScr   map[blob.Line]bool
	linesScr     []blob.Line
	missSeen     map[blob.CellID]bool
	missBuf      []blob.CellID
	promOnScr    map[blob.Line]int
	planIndex    map[blob.CellID]int
	planLines    map[blob.Line][]int
	planOrder    []blob.Line
	planScores   map[int]int
	planBoosted  map[int][]int
	planBoostOrd []int
	planStamp    []int
	planSamples  []int
	planCounts   []int
	planScored   []fetch.Scored

	// obs maintains the current slot's metrics view and (optionally)
	// traces protocol events through cfg.Recorder.
	obs obsv.Observer

	// mRejects counts proof-verification rejects in the shared registry
	// (nil without cfg.Metrics).
	mRejects *obsv.Counter
}

// NewNode creates a node bound to a transport address. rngSeed drives the
// node's local (unpredictable to others) choices: sample selection.
func NewNode(cfg Config, index int, table *Table, tr Transport, rngSeed int64) *Node {
	n := &Node{
		cfg:   cfg,
		index: index,
		table: table,
		tr:    tr,
		rng:   rand.New(rand.NewSource(rngSeed)),
		obs:   obsv.Observer{Rec: cfg.Recorder, Node: int32(index)},
	}
	if cfg.Metrics != nil {
		n.mRejects = cfg.Metrics.Counter("fetch_corrupt_rejects_total")
	}
	return n
}

// Metrics returns the node's observations for the current slot — a copy
// of the live view the node's observer maintains.
func (n *Node) Metrics() NodeMetrics { return n.obs.View }

// SetView restricts the node's knowledge of the network. Views may be
// static predicates (membership.ViewFunc) or evolve while the slot runs
// (membership.LiveView). Passing nil restores the complete view.
func (n *Node) SetView(v membership.View) { n.view = v }

// View returns the node's current view (nil means complete).
func (n *Node) View() membership.View { return n.view }

// SetLiveness installs peer-liveness scoring: query timeouts demote
// peers and the fetch planner skips demoted ones. Passing nil disables
// scoring.
func (n *Node) SetLiveness(l LivenessRecorder) { n.liveness = l }

// SetSeedVerification enables proposer-signature verification of seeding
// messages against the given proposer public key.
func (n *Node) SetSeedVerification(pub ed25519.PublicKey) {
	n.verifySeeds = pub != nil
	n.proposerPub = pub
}

// Index returns the node's transport address.
func (n *Node) Index() int { return n.index }

// afterGuarded schedules fn but drops it if the node has since been
// restarted (StartSlot increments gen). Slot-number checks alone cannot
// catch a crash+restart WITHIN one slot, and they also let a timer armed
// near the end of slot s leak into slot s when the counter wraps around
// a multi-slot run; the generation counter closes both holes.
func (n *Node) afterGuarded(d time.Duration, fn func()) {
	g := n.gen
	n.tr.After(d, func() {
		if n.gen == g {
			fn()
		}
	})
}

// Transport returns the node's transport (for callers that need its
// clock, e.g. converting completion times across endpoints).
func (n *Node) Transport() Transport { return n.tr }

// Store exposes the current slot's custody store (for inspection).
func (n *Node) Store() *Store { return n.store }

// Samples returns the cells selected for sampling this slot.
func (n *Node) Samples() []blob.CellID { return n.samples }

// StartSlot resets per-slot state: recomputes nothing (the assignment
// lives in the shared epoch table), resets the store in place, and draws
// the slot's random sample set. Fetching does not start until seed cells
// arrive, a custody query arms the seed-wait timer, or the fallback
// timer (3x SeedWait) fires.
func (n *Node) StartSlot(slot uint64) {
	n.slot = slot
	n.gen++
	a := n.table.Assignment(n.index)
	if n.store == nil {
		n.store = NewStore(n.cfg.Blob, a, n.cfg.RealPayloads, n.verifySeeds)
	} else {
		n.store.Reset(a, n.cfg.RealPayloads, n.verifySeeds)
	}
	n.samples = n.drawSamples()
	n.pendingSmp = resetMap(n.pendingSmp, len(n.samples))
	for _, c := range n.samples {
		n.pendingSmp[c] = true
	}
	n.boost = resetMap(n.boost, 0)
	n.queried = resetMap(n.queried, 0)
	n.queryRound = resetMap(n.queryRound, 0)
	n.buffered = resetMap(n.buffered, 0)
	n.round = 0
	n.lastRearm = 0
	n.roundEnds = n.roundEnds[:0]
	n.fetching = false
	n.seedTimer = false
	n.seedChunks = 0
	n.seedDone = false
	n.promised = resetMap(n.promised, 0)
	n.outstanding = resetMap(n.outstanding, 0)
	n.cbSeeded = resetMap(n.cbSeeded, 0)
	n.pendingOut = resetMap(n.pendingOut, 0)
	n.flushArmed = false
	n.awaitReply = resetMap(n.awaitReply, 0)
	n.badPeers = resetMap(n.badPeers, 0)
	n.obs.BeginSlot(slot, n.tr.Now())

	// Fallback: a node the builder does not know never receives seeds and
	// may never be queried; it still must sample.
	n.afterGuarded(3*n.cfg.SeedWait, func() {
		if !n.obs.View.HasSeed && !n.fetching && !n.done() {
			n.startFetch()
		}
	})
}

// JoinSlot brings a node online partway through a slot: a joiner (or a
// restarting crasher) starts from an empty store — whatever it held
// before going down is gone — and must fetch everything it needs from
// peers. Seeding has typically already passed it by, so the StartSlot
// fallback timer is what kicks off its fetch unless a custody query or a
// straggling seed datagram arrives first.
func (n *Node) JoinSlot(slot uint64) { n.StartSlot(slot) }

// drawSamples picks Samples distinct random cells, unpredictable to
// other participants (unlike the custody assignment).
func (n *Node) drawSamples() []blob.CellID {
	total := n.cfg.Blob.ExtendedCells()
	count := n.cfg.Samples
	n.drawSeen = resetMap(n.drawSeen, count)
	out := make([]blob.CellID, 0, count)
	for len(out) < count {
		idx := n.rng.Intn(total)
		if n.drawSeen[idx] {
			continue
		}
		n.drawSeen[idx] = true
		out = append(out, blob.CellIDFromIndex(idx, n.cfg.Blob.N()))
	}
	return out
}

// resetMap returns m emptied for reuse, allocating only on first use.
func resetMap[K comparable, V any](m map[K]V, hint int) map[K]V {
	if m == nil {
		return make(map[K]V, hint)
	}
	clear(m)
	return m
}

// HandleMessage dispatches a received protocol payload. It reports
// whether the payload was a PANDAS message.
func (n *Node) HandleMessage(from int, size int, payload any) bool {
	switch m := payload.(type) {
	case *wire.Seed:
		n.onSeed(m)
	case *wire.Query:
		n.obs.View.FetchMsgsRecv++
		n.obs.View.FetchBytesRecv += int64(size)
		n.onQuery(from, m)
	case *wire.Response:
		n.obs.View.FetchMsgsRecv++
		n.obs.View.FetchBytesRecv += int64(size)
		n.onResponse(from, m)
	default:
		return false
	}
	return true
}

func (n *Node) onSeed(m *wire.Seed) {
	if m.Slot != n.slot || n.store == nil {
		return
	}
	if n.verifySeeds {
		if !ids.VerifyFrom(n.proposerPub, wire.SeedSigningBytes(m.Slot, m.Builder), m.ProposerSig[:]) {
			return // unauthenticated seeding: ignore
		}
	}
	if _, ok := n.store.Commitment(); !ok {
		n.store.SetCommitment(m.Commitment)
	}
	now := n.tr.Now()
	n.obs.SeedChunk(now, len(m.Cells))
	n.seedChunks++
	// Watchdog for lost tail chunks: if no further seed datagram lands
	// within the seed-wait period, fetching starts with what we have.
	// SeedAt doubles as the generation marker, so only the timer armed by
	// the LAST chunk received fires the fetch.
	generation := now
	n.afterGuarded(n.cfg.SeedWait, func() {
		if n.obs.View.SeedAt != generation {
			return
		}
		// Seed flow went quiet without completing: any promised cells
		// that never arrived were lost — fetch them from peers.
		n.seedDone = true
		n.promised = nil
		if !n.fetching && !n.done() {
			n.startFetch()
		}
	})
	dups, added, rejects := n.addCells(m.Cells)
	n.obs.SeedIngested(now, added, dups)
	if rejects > 0 && n.obs.Enabled() {
		// Peer -1: the rejecting batch came from the seeding path, not a
		// fetch peer (nothing to ban — seeds are already authenticated).
		n.obs.Emit(obsv.Event{At: now, Kind: obsv.KindCorruptReject,
			Peer: -1, Count: int32(rejects)})
	}
	for _, e := range m.Boost {
		peer := n.table.HolderAt(e.Line, int(e.HolderRef))
		if peer < 0 {
			continue
		}
		seeded := n.cbSeeded[e.Line]
		if seeded == nil {
			seeded = make([]uint64, (n.cfg.Blob.N()+63)/64)
			n.cbSeeded[e.Line] = seeded
		}
		for p := int(e.Start); p < int(e.Start)+int(e.Count); p++ {
			seeded[p/64] |= 1 << uint(p%64)
		}
		if peer == n.index {
			// Our own parcels: the builder is sending these cells to us.
			// Once the seed flow is done (late or duplicate chunk) nothing
			// is in flight any more, so there is nothing to promise.
			if !n.seedDone {
				for pos := int(e.Start); pos < int(e.Start)+int(e.Count); pos++ {
					n.promised[cellOnLine(e.Line, pos)] = true
				}
			}
			continue
		}
		n.boost[peer] = append(n.boost[peer], boostParcel{line: e.Line, start: int(e.Start), count: int(e.Count)})
	}
	if n.seedChunks >= int(m.ChunkCount) {
		// Full batch landed: everything still missing is fair game.
		n.seedDone = true
		n.promised = nil
	}
	// The reception of seed cells triggers consolidation and sampling
	// (Fig. 5). Cells still being transmitted by the builder are excluded
	// from F via the promised set, so the pipeline starts immediately
	// without re-requesting in-flight seed data.
	if !n.fetching && !n.done() {
		n.startFetch()
	} else if n.fetching && n.seedDone {
		n.updateCompletion()
	}
}

func (n *Node) onQuery(from int, m *wire.Query) {
	if m.Slot != n.slot || n.store == nil {
		return
	}
	var have []wire.Cell
	for _, id := range m.Cells {
		if c, ok := n.store.Get(id); ok {
			have = append(have, c)
			continue
		}
		if n.store.Covered(id) {
			// Assigned but not yet received: buffer, reply when it lands
			// (no negative acknowledgements).
			reqs, ok := n.buffered[id]
			if !ok {
				reqs = make(map[int]bool, 1)
				n.buffered[id] = reqs
			}
			reqs[from] = true
		}
	}
	n.sendCells(from, have)

	// A request for a slot we have no seed cells for arms the seed-wait
	// timer (Section 6.2): if the builder's seeds never arrive (packet
	// loss, or the builder does not know this node), fetching starts
	// regardless. The timer is generous — three seed-wait periods — so
	// that nodes seeded late in the builder's ~1 s transmission schedule
	// still start from their seed batch rather than from nothing, which
	// keeps round-1 queries aimed at peers that already hold data (the
	// paper's Table 1 dynamics).
	if !n.obs.View.HasSeed && !n.fetching && !n.seedTimer {
		n.seedTimer = true
		n.afterGuarded(3*n.cfg.SeedWait, func() {
			if !n.obs.View.HasSeed && !n.fetching && !n.done() {
				n.startFetch()
			}
		})
	}
}

func (n *Node) onResponse(from int, m *wire.Response) {
	if m.Slot != n.slot || n.store == nil {
		return
	}
	// Any response — even an empty or partial one — settles the reply
	// deadline; whether it counts for or against the peer depends on
	// whether its cells verify.
	delete(n.awaitReply, from)
	var dups, added, rejects int
	round := 0
	// Attribute the reply to the round in which the peer was queried.
	if r, ok := n.queryRound[from]; ok && r >= 1 && r <= len(n.roundEnds) {
		round = r
		stat := &n.obs.View.Rounds[r-1]
		inRound := n.tr.Now() <= n.roundEnds[r-1]
		if inRound {
			stat.RepliesInRound++
			stat.CellsInRound += len(m.Cells)
		} else {
			stat.RepliesAfterRound++
			stat.CellsAfterRound += len(m.Cells)
		}
		dups, added, rejects = n.addCells(m.Cells)
		stat.Duplicates += dups
	} else {
		dups, added, rejects = n.addCells(m.Cells)
	}
	if n.obs.Enabled() {
		n.obs.Emit(obsv.Event{At: n.tr.Now(), Kind: obsv.KindCellsReceived,
			Src: obsv.SrcFetch, Peer: int32(from), Round: int32(round),
			Count: int32(added), Aux: int64(dups)})
	}
	if rejects > 0 {
		// Cryptographic evidence of misbehavior — a signed commitment and
		// a cell that fails against it. Ban the peer for the rest of the
		// slot (the periodic queried-set re-arm must not resurrect it) and
		// report garbage rather than success to the liveness scorer.
		n.badPeers[from] = true
		if n.liveness != nil {
			n.liveness.ReportGarbage(from)
		}
		if n.obs.Enabled() {
			n.obs.Emit(obsv.Event{At: n.tr.Now(), Kind: obsv.KindCorruptReject,
				Peer: int32(from), Round: int32(round), Count: int32(rejects)})
		}
		return
	}
	if n.liveness != nil {
		n.liveness.ReportSuccess(from)
	}
}

// addCells ingests a batch of cells: store them, satisfy samples, flush
// buffered queries, attempt erasure reconstruction, and update phase
// completion. It returns the duplicate count, the number of cells added,
// and the number rejected for failing proof verification. Rejected cells
// are never ingested: their in-flight markers are dropped on the spot so
// the next round's plan re-requests them from other peers.
func (n *Node) addCells(cells []wire.Cell) (dups, added, rejects int) {
	if len(cells) == 0 {
		return 0, 0, 0
	}
	touched := resetMap(n.touchedScr, 4)
	n.touchedScr = touched
	for _, c := range cells {
		ok, err := n.store.Add(c)
		if errors.Is(err, ErrBadProof) {
			rejects++
			delete(n.outstanding, c.ID)
			n.obs.View.CorruptRejects++
			if n.mRejects != nil {
				n.mRejects.Inc()
			}
			continue
		}
		if err != nil || !ok {
			dups++
			continue
		}
		added++
		n.cellLanded(c, touched)
	}
	// Erasure reconstruction of any custody line that crossed the
	// half-full threshold (Algorithm 1, UPONRECEIVE).
	recon := 0
	lines := n.linesScr[:0]
	for line := range touched {
		lines = append(lines, line)
	}
	n.linesScr = lines
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].Kind != lines[j].Kind {
			return lines[i].Kind < lines[j].Kind
		}
		return lines[i].Index < lines[j].Index
	})
	for _, line := range lines {
		newCells, err := n.store.TryReconstruct(line)
		if err != nil {
			continue
		}
		recon += len(newCells)
		for _, c := range newCells {
			n.cellLanded(c, nil)
		}
	}
	if recon > 0 && n.round >= 1 && n.round <= len(n.obs.View.Rounds) {
		n.obs.View.Rounds[n.round-1].Reconstructed += recon
	}
	if recon > 0 && n.obs.Enabled() {
		n.obs.Emit(obsv.Event{At: n.tr.Now(), Kind: obsv.KindCellsReceived,
			Src: obsv.SrcReconstruct, Peer: -1, Round: int32(n.round),
			Count: int32(recon)})
	}
	n.armFlush()
	n.updateCompletion()
	return dups, added, rejects
}

// armFlush schedules a coalesced transmission of buffered-query replies.
func (n *Node) armFlush() {
	if n.flushArmed || len(n.pendingOut) == 0 {
		return
	}
	n.flushArmed = true
	n.afterGuarded(flushDelay, func() {
		n.flushArmed = false
		recipients := make([]int, 0, len(n.pendingOut))
		for to := range n.pendingOut {
			recipients = append(recipients, to)
		}
		sort.Ints(recipients)
		for _, to := range recipients {
			n.sendCells(to, n.pendingOut[to])
		}
		clear(n.pendingOut)
	})
}

// cellLanded performs the bookkeeping for one newly present cell.
func (n *Node) cellLanded(c wire.Cell, touched map[blob.Line]bool) {
	if n.pendingSmp[c.ID] {
		delete(n.pendingSmp, c.ID)
	}
	delete(n.outstanding, c.ID)
	if reqs, ok := n.buffered[c.ID]; ok {
		full, _ := n.store.Get(c.ID)
		for to := range reqs {
			n.pendingOut[to] = append(n.pendingOut[to], full)
		}
		delete(n.buffered, c.ID)
	}
	if touched != nil {
		rowLine := blob.Line{Kind: blob.Row, Index: c.ID.Row}
		colLine := blob.Line{Kind: blob.Col, Index: c.ID.Col}
		if n.store.LineCount(rowLine) > 0 && !n.store.LineComplete(rowLine) {
			touched[rowLine] = true
		}
		if n.store.LineCount(colLine) > 0 && !n.store.LineComplete(colLine) {
			touched[colLine] = true
		}
	}
}

// updateCompletion records consolidation and sampling completion times.
func (n *Node) updateCompletion() {
	now := n.tr.Now()
	if !n.obs.View.Consolidated && n.store.CompleteLines() == n.store.TrackedLines() {
		n.obs.ConsolidationDone(now)
	}
	if !n.obs.View.Sampled && len(n.pendingSmp) == 0 {
		n.obs.SamplingDone(now, len(n.samples))
	}
}

func (n *Node) done() bool {
	if n.cfg.DisableConsolidation {
		return n.obs.View.Sampled
	}
	return n.obs.View.Consolidated && n.obs.View.Sampled
}

// DeliverCustody ingests custody cells that arrived outside the PANDAS
// seeding path (e.g. via the GossipSub baseline's topic meshes). It
// triggers the sampling fetcher on first delivery.
func (n *Node) DeliverCustody(cells []wire.Cell) {
	if n.store == nil {
		return
	}
	n.addCells(cells)
	if !n.fetching && !n.done() {
		n.startFetch()
	}
}

// sendCells transmits cells to a peer in datagram-sized chunks.
func (n *Node) sendCells(to int, cells []wire.Cell) {
	for len(cells) > 0 {
		chunk := cells
		if len(chunk) > n.cfg.MaxCellsPerMsg {
			chunk = cells[:n.cfg.MaxCellsPerMsg]
		}
		cells = cells[len(chunk):]
		m := &wire.Response{Slot: n.slot, Cells: chunk}
		size := m.WireSize(n.cfg.Blob.CellBytes)
		n.obs.View.FetchMsgsSent++
		n.obs.View.FetchBytesSent += int64(size)
		n.tr.Send(to, size, m)
	}
}

// startFetch begins the adaptive fetching process (consolidation and
// sampling share it).
func (n *Node) startFetch() {
	n.fetching = true
	n.obs.View.InitialFetchSet = len(n.missingCells())
	n.runRound()
}

// missingCells computes F: custody cells not yet present plus samples not
// yet present. The returned slice is a scratch buffer owned by the node:
// it is valid until the next missingCells call (each round consumes its F
// before scheduling the next).
func (n *Node) missingCells() []blob.CellID {
	out := n.missBuf[:0]
	seen := resetMap(n.missSeen, 0)
	n.missSeen = seen
	if !n.cfg.DisableConsolidation {
		a := n.table.Assignment(n.index)
		half := n.cfg.Blob.K
		margin := half / 4
		if margin < 2 {
			margin = 2
		}
		promisedOn := resetMap(n.promOnScr, 0)
		n.promOnScr = promisedOn
		for id := range n.promised {
			promisedOn[blob.Line{Kind: blob.Row, Index: id.Row}]++
			promisedOn[blob.Line{Kind: blob.Col, Index: id.Col}]++
		}
		for _, l := range a.Lines() {
			have := n.store.LineCount(l)
			if have >= n.cfg.Blob.N() {
				continue
			}
			// Rational fetching: a line reconstructs from any K of its 2K
			// cells, so request only up to K+margin present cells rather
			// than every missing one — the erasure code supplies the rest.
			// Requesting everything would turn the decoder's surplus into
			// duplicate deliveries (and wasted bandwidth) for half a line.
			// Cells the builder has promised this node (its own CB
			// parcels, still in flight) count as good as received.
			needed := half + margin - have - promisedOn[l]
			if needed <= 0 {
				// Already past the threshold; reconstruction will fire as
				// soon as the in-flight cells land.
				continue
			}
			missing := n.store.MissingOnLine(l)
			seeded := n.cbSeeded[l]
			isSeeded := func(pos int) bool {
				return seeded != nil && seeded[pos/64]&(1<<uint(pos%64)) != 0
			}
			// Prefer positions the builder actually seeded somewhere, and
			// rotate the starting point with the round number so that a
			// cell that turns out to be unobtainable (lost response, dead
			// holder) does not pin the same subset forever.
			picked := 0
			for pass := 0; pass < 2 && picked < needed; pass++ {
				off := 0
				if len(missing) > 0 {
					off = (n.round * 13) % len(missing)
				}
				for i := range missing {
					if picked >= needed {
						break
					}
					pos := missing[(i+off)%len(missing)]
					if (pass == 0) != isSeeded(pos) {
						continue
					}
					id := cellOnLine(l, pos)
					if seen[id] || n.promised[id] {
						continue
					}
					seen[id] = true
					out = append(out, id)
					picked++
				}
			}
		}
	}
	for _, id := range n.samples {
		if n.pendingSmp[id] && !seen[id] && !n.promised[id] && !n.store.Has(id) {
			seen[id] = true
			out = append(out, id)
		}
	}
	n.missBuf = out
	return out
}

// runRound executes one round of Algorithm 1 and schedules the next.
func (n *Node) runRound() {
	if n.store == nil || !n.fetching {
		n.fetching = false
		return
	}
	F := n.missingCells()
	// Record cumulative coverage for the round that just ended (also when
	// the fetch completed during it).
	if n.round >= 1 && n.round <= len(n.obs.View.Rounds) && n.obs.View.InitialFetchSet > 0 {
		n.obs.View.Rounds[n.round-1].CoverageAfter =
			1 - float64(len(F))/float64(n.obs.View.InitialFetchSet)
	}
	if n.done() {
		n.fetching = false
		return
	}
	if n.round >= n.cfg.Schedule.MaxRounds {
		n.fetching = false
		return
	}
	n.round++
	// Sweep expired reply deadlines: a peer queried more than inflightTTL
	// ago with no response of any kind is reported to the liveness scorer,
	// which puts it into exponential backoff (and re-arms it later via the
	// queryable-set sweep below).
	if n.liveness != nil {
		now := n.tr.Now()
		for peer, deadline := range n.awaitReply {
			if now >= deadline {
				delete(n.awaitReply, peer)
				n.liveness.ReportTimeout(peer)
			}
		}
	}
	if len(F) == 0 {
		n.updateCompletion()
		n.fetching = false
		return
	}
	stat := RoundStat{}
	// Periodic re-arm: with single-copy data (the minimal policy) a lost
	// response can leave a cell whose only live holder has already been
	// queried; clearing the queried set every few rounds lets the node
	// retry it. In-flight markers keep this from duplicating requests in
	// the common case.
	if n.round > 1 && n.round-n.lastRearm >= 8 {
		n.lastRearm = n.round
		clear(n.queried)
	}
	plan := n.planRound(F)
	if len(plan) == 0 && len(F) > 0 && n.round > 1 && n.round-n.lastRearm >= 4 {
		// Every queryable peer has been used while cells remain missing —
		// possible because earlier rounds requested only budgeted subsets
		// of each line. Re-arm the queryable set (a fresh Q <- V sweep);
		// in-flight markers still prevent immediate duplicate requests,
		// and the sweep is rate-limited to one per four rounds.
		n.lastRearm = n.round
		clear(n.queried)
		plan = n.planRound(F)
	}
	if n.obs.Enabled() {
		n.obs.Emit(obsv.Event{At: n.tr.Now(), Kind: obsv.KindRoundStarted,
			Peer: -1, Round: int32(n.round), Count: int32(len(F)),
			Aux: int64(len(plan))})
	}
	for _, q := range plan {
		peer := q.Peer
		n.queried[peer] = true
		n.queryRound[peer] = n.round
		if n.liveness != nil {
			if _, waiting := n.awaitReply[peer]; !waiting {
				n.awaitReply[peer] = n.tr.Now() + inflightTTL
			}
		}
		cells := make([]blob.CellID, len(q.Cells))
		for i, idx := range q.Cells {
			cells[i] = F[idx]
		}
		stat.CellsRequested += len(cells)
		for len(cells) > 0 {
			chunk := cells
			if len(chunk) > n.cfg.MaxCellsPerMsg {
				chunk = cells[:n.cfg.MaxCellsPerMsg]
			}
			cells = cells[len(chunk):]
			m := &wire.Query{Slot: n.slot, Cells: chunk}
			size := m.WireSize(n.cfg.Blob.CellBytes)
			stat.MsgsSent++
			n.obs.View.FetchMsgsSent++
			n.obs.View.FetchBytesSent += int64(size)
			n.tr.Send(peer, size, m)
		}
	}
	timeout := n.cfg.Schedule.Timeout(n.round)
	n.obs.View.Rounds = append(n.obs.View.Rounds, stat)
	n.roundEnds = append(n.roundEnds, n.tr.Now()+timeout)
	n.afterGuarded(timeout, n.runRound)
}

// planRound builds scored candidates over the holders of every line that
// intersects F and plans queries with the round's redundancy factor.
func (n *Node) planRound(F []blob.CellID) []fetch.Query {
	index := resetMap(n.planIndex, len(F))
	n.planIndex = index
	for i, id := range F {
		index[id] = i
	}
	// Group F by line (both the row and the column of each cell can
	// serve it).
	lineCells := resetMap(n.planLines, 0)
	n.planLines = lineCells
	lineOrder := n.planOrder[:0]
	for i, id := range F {
		rl := blob.Line{Kind: blob.Row, Index: id.Row}
		cl := blob.Line{Kind: blob.Col, Index: id.Col}
		if len(lineCells[rl]) == 0 {
			lineOrder = append(lineOrder, rl)
		}
		lineCells[rl] = append(lineCells[rl], i)
		if len(lineCells[cl]) == 0 {
			lineOrder = append(lineOrder, cl)
		}
		lineCells[cl] = append(lineCells[cl], i)
	}
	n.planOrder = lineOrder
	// Score candidate peers: coverage per shared line plus boost. The
	// scan over each line's holders is windowed at maxLineCandidates —
	// in a dense deployment (small grid, huge N) a line can have
	// thousands of holders, and scoring all of them made planning (and
	// the O(N log N) sort in PlanLazyFrom) the simulator's dominant
	// cost, O(N²) across the cluster per round. The window rotates with
	// (node, round, line), so retries reach different peers each round;
	// at the paper's geometry (a handful of holders per line) every
	// holder is scored.
	//
	// Candidates accumulate into scored in first-encounter order —
	// lines in F order, holders in window order — which is
	// deterministic by construction, so equal-score ties resolve
	// identically across runs without sorting. scores maps each peer to
	// its index in scored.
	scores := resetMap(n.planScores, 0)
	n.planScores = scores
	scored := n.planScored[:0]
	truncated := false
	for _, line := range lineOrder {
		cells := lineCells[line]
		holders := n.table.Holders(line)
		span := len(holders)
		off := 0
		if span > maxLineCandidates {
			truncated = true
			off = scanOffset(n.index, n.round, line, span)
			span = maxLineCandidates
		}
		for j := 0; j < span; j++ {
			peer := holders[(off+j)%len(holders)]
			if peer == n.index || n.queried[peer] {
				continue
			}
			if n.view != nil && !n.view.Contains(peer) {
				continue
			}
			if idx, ok := scores[peer]; ok {
				scored[idx].Score += len(cells)
			} else {
				scores[peer] = len(scored)
				scored = append(scored, fetch.Scored{Peer: peer, Score: len(cells)})
			}
		}
	}
	// Consolidation boost: peers the builder's CB map lists as seeded
	// with cells still missing. Their score gets the cb_boost bonus, and
	// — crucially — the query planned for them targets exactly their
	// seeded cells, so round 1 pulls every cell from a peer that already
	// HAS it rather than from a peer that would buffer the request until
	// its own consolidation finishes.
	boostedCells := resetMap(n.planBoosted, 0)
	n.planBoosted = boostedCells
	if cap(n.planStamp) < len(F) {
		n.planStamp = make([]int, len(F))
	}
	stamp := n.planStamp[:len(F)]
	for i := range stamp {
		stamp[i] = 0
	}
	stampVal := 0
	// Iterate boost peers in sorted order: fallback admissions append to
	// scored, and the append order must not depend on map iteration.
	boostPeers := n.planBoostOrd[:0]
	for peer := range n.boost {
		boostPeers = append(boostPeers, peer)
	}
	sort.Ints(boostPeers)
	n.planBoostOrd = boostPeers
	for _, peer := range boostPeers {
		parcels := n.boost[peer]
		idx, ok := scores[peer]
		if !ok {
			// Full-scan rounds: absence means dead view / already
			// queried / not a holder. Windowed rounds can also have
			// sampled the peer out, and a CB-listed holder is exactly
			// who round 1 must reach, so admit it through the same
			// filters with its parcel coverage as the base score.
			if !truncated {
				continue
			}
			if peer == n.index || n.queried[peer] {
				continue
			}
			if n.view != nil && !n.view.Contains(peer) {
				continue
			}
			cov := 0
			for pi, p := range parcels {
				dup := false
				for _, q := range parcels[:pi] {
					if q.line == p.line {
						dup = true
						break
					}
				}
				if !dup {
					cov += len(lineCells[p.line])
				}
			}
			if cov == 0 {
				continue
			}
			idx = len(scored)
			scores[peer] = idx
			scored = append(scored, fetch.Scored{Peer: peer, Score: cov})
		}
		stampVal++
		var cells []int
		for _, p := range parcels {
			for pos := p.start; pos < p.start+p.count; pos++ {
				if i, ok := index[cellOnLine(p.line, pos)]; ok && stamp[i] != stampVal {
					stamp[i] = stampVal
					cells = append(cells, i)
				}
			}
		}
		if len(cells) > 0 {
			boostedCells[peer] = cells
			scored[idx].Score += len(cells) * n.cfg.CBBoost
		}
	}
	if n.obs.Enabled() && len(boostedCells) > 0 {
		total := 0
		for _, cells := range boostedCells {
			total += len(cells)
		}
		n.obs.Emit(obsv.Event{At: n.tr.Now(), Kind: obsv.KindBoostPromotion,
			Peer: -1, Round: int32(n.round), Count: int32(len(boostedCells)),
			Aux: int64(total)})
	}
	n.planScored = scored
	// Peers caught serving unverifiable cells are banned for the slot —
	// a stronger judgment than liveness backoff, which is why it is a
	// separate filter rather than a scorer state.
	if len(n.badPeers) > 0 {
		scored = fetch.Exclude(scored, func(peer int) bool { return n.badPeers[peer] })
	}
	if n.liveness != nil {
		var onSkip func(int)
		if n.obs.Enabled() {
			at := n.tr.Now()
			onSkip = func(peer int) {
				n.obs.Emit(obsv.Event{At: at, Kind: obsv.KindPeerDemoted,
					Peer: int32(peer), Round: int32(n.round)})
			}
		}
		scored = fetch.ApplyLivenessObserved(scored, n.liveness, onSkip)
	}

	// Sample cells have no CB entries; boosted peers may still cover
	// them through their assignments.
	sampleIdx := n.planSamples[:0]
	for i, id := range F {
		if n.pendingSmp[id] {
			sampleIdx = append(sampleIdx, i)
		}
	}
	n.planSamples = sampleIdx
	cellsOf := func(peer int) []int {
		if bc, ok := boostedCells[peer]; ok {
			out := bc
			a := n.table.Assignment(peer)
			for _, idx := range sampleIdx {
				if a.Covers(F[idx]) {
					dup := false
					for _, x := range bc {
						if x == idx {
							dup = true
							break
						}
					}
					if !dup {
						out = append(out, idx)
					}
				}
			}
			return out
		}
		var out []int
		for _, l := range n.table.Assignment(peer).Lines() {
			for _, idx := range lineCells[l] {
				if stamp[idx] != -(peer + 1) {
					stamp[idx] = -(peer + 1)
					out = append(out, idx)
				}
			}
		}
		return out
	}
	k := n.cfg.Schedule.RedundancyAt(n.round)
	// Unexpired in-flight queries count toward each cell's redundancy.
	now := n.tr.Now()
	if cap(n.planCounts) < len(F) {
		n.planCounts = make([]int, len(F))
	}
	counts := n.planCounts[:len(F)]
	for i, id := range F {
		exps := n.outstanding[id]
		live := exps[:0]
		for _, e := range exps {
			if e > now {
				live = append(live, e)
			}
		}
		if len(live) == 0 {
			delete(n.outstanding, id)
		} else {
			n.outstanding[id] = live
		}
		counts[i] = len(live)
	}
	plan := fetch.PlanLazyFrom(scored, counts, k, cellsOf)
	expiry := now + inflightTTL
	for _, q := range plan {
		for _, idx := range q.Cells {
			n.outstanding[F[idx]] = append(n.outstanding[F[idx]], expiry)
		}
	}
	return plan
}

// maxLineCandidates bounds how many holders of one line planRound
// scores. The redundancy ceiling is fetch.MaxRedundancy (10), so 64
// candidates per line leave ample slack for liveness demotions and
// banned peers while keeping planning O(lines) instead of O(N). See
// the comment at the scoring loop.
const maxLineCandidates = 64

// scanOffset picks the rotating window start for a line's holder scan:
// deterministic in (node, round, line) so runs are reproducible, varied
// across rounds so successive retries sample different holders.
func scanOffset(self, round int, l blob.Line, n int) int {
	x := uint64(self)*0x9e3779b97f4a7c15 ^
		uint64(round)*0xc2b2ae3d27d4eb4f ^
		(uint64(l.Index)<<3|uint64(l.Kind))*0xd6e8feb86659fd93
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}
