// Command slotbench is the repository benchmark. It runs one PANDAS
// workload for a fixed time in a closed loop (one slot in flight), checks
// the outputs, and prints a human-readable report followed by one JSON
// line of metrics:
//
//	slotbench --workload slot-udp --seed 1 --seconds 20 --trace 0
//
// Workloads: seed-paper (the builder at the paper's full geometry,
// seeding 64 bare UDP receivers), slot-udp (complete slots of 64 nodes
// over real UDP at K = 32) and sim-paper (a 300-node simulated cluster at
// the paper's geometry). --trace 0 prints the end-to-end metrics;
// --trace 1 alternates traced and untraced slots, takes a CPU profile,
// and prints the per-layer metrics. README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, defined for every
// workload; README.md gives each workload's reading of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"slot_ms", "ms"},
	{"complete_p50_ms", "ms"},
	{"complete_p95_ms", "ms"},
	{"deadline_share", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"builder.first_send_ms", "ms"},
	{"builder.send_ms", "ms"},
	{"builder.wait_ms", "ms"},
	{"builder.datagrams", "count"},
	{"builder.bytes", "B"},
	{"ecc.extend_ms", "ms"},
	{"kzg.commit_ms", "ms"},
	{"kzg.prove_ms", "ms"},
	{"rs.reconstruct_line_us", "us"},
	{"wire.encode_ns.seed", "ns"},
	{"wire.encode_ns.query", "ns"},
	{"wire.encode_ns.response", "ns"},
	{"wire.decode_ns.seed", "ns"},
	{"wire.decode_ns.query", "ns"},
	{"wire.decode_ns.response", "ns"},
	{"transport.send_us", "us"},
	{"transport.sends", "count"},
	{"transport.rcvbuf_drops", "count"},
	{"transport.loop_lag_p50_ms", "ms"},
	{"transport.loop_lag_p99_ms", "ms"},
	{"node.seed_handle_us", "us"},
	{"node.query_handle_us", "us"},
	{"node.response_handle_us", "us"},
	{"node.timer_ms", "ms"},
	{"node.panics", "count"},
	{"node.rounds", "count"},
	{"node.fetch_msgs", "count"},
	{"node.fetch_bytes", "B"},
	{"node.dup_ratio", "ratio"},
	{"node.seed_dup_ratio", "ratio"},
	{"node.reconstructed_cells", "count"},
	{"node.first_seed_ms", "ms"},
	{"node.consolidation_ms", "ms"},
	{"simnet.events", "count"},
	{"simnet.events_per_s", "1/s"},
	{"simnet.dropped", "count"},
	{"trace.overhead_pct", "%"},
}

func init() {
	for _, l := range cpuLayers {
		perLayer = append(perLayer, metricDef{"cpu." + l, "ratio"})
	}
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for spans and profiles
}

// runResult is what a workload hands back to main.
type runResult struct {
	attempted, failed int
	problems          []string // output-check failures; any makes the run incorrect
	metrics           map[string]float64
	report            []string
}

func (r *runResult) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) printf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*runResult, error){
	"seed-paper": runSeedPaper,
	"slot-udp":   runSlotUDP,
	"sim-paper":  runSimPaper,
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "seed-paper, slot-udp or sim-paper")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "measurement time per run")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span dumps and CPU profiles")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "slotbench: need --workload seed-paper|slot-udp|sim-paper, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "slotbench:", err)
		os.Exit(1)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slotbench:", err)
		os.Exit(1)
	}
	for _, line := range res.report {
		fmt.Println(line)
	}
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			fmt.Fprintln(os.Stderr, "slotbench: metric not measured:", d.name)
			os.Exit(1)
		}
		metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "slotbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setupRepeats is how many times a run builds its deployment; setup_s is
// the median, and only the last deployment is kept.
const setupRepeats = 5

// setupRepeated times build setupRepeats times, closing all but the last
// result, and returns the last result with the median build time.
func setupRepeated[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var times []float64
	var last T
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			release(v)
		}
		last = v
	}
	return last, median(times), nil
}

// slotLoop runs measured slots in a closed loop: the next slot starts
// when the previous one has ended, while the previous iteration's length
// still fits in the budget, and always at least minSlots times.
func slotLoop(budget time.Duration, minSlots int, run func(slot uint64) error) (int, error) {
	start := time.Now()
	var last time.Duration
	n := 0
	for slot := uint64(2); ; slot++ { // slot 1 is the warm-up
		if n >= minSlots && time.Since(start)+last > budget {
			return n, nil
		}
		t := time.Now()
		if err := run(slot); err != nil {
			return n, err
		}
		last = time.Since(t)
		n++
	}
}

// startProfile starts the traced run's CPU profile.
func startProfile(o options) (stop func() (map[string]float64, error), err error) {
	path := filepath.Join(o.out, fmt.Sprintf("cpu-%s-%d.pprof", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		return foldProfile(path)
	}, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// rcvbufErrors reads the host's UDP RcvbufErrors counter from
// /proc/net/snmp: datagrams the kernel dropped because a socket's receive
// buffer was full. It returns -1 when the counter is unavailable.
func rcvbufErrors() int64 {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return -1
	}
	var header []string
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = f
			continue
		}
		for i, h := range header {
			if h == "RcvbufErrors" && i < len(f) {
				v, err := strconv.ParseInt(f[i], 10, 64)
				if err != nil {
					return -1
				}
				return v
			}
		}
	}
	return -1
}

// fmtSlots renders the spread of per-slot wall times.
func fmtSlots(name string, xs []float64) string {
	return fmt.Sprintf("%-22s %10.2f ms   n=%d, min %.2f, p25 %.2f, p75 %.2f, max %.2f", name, median(xs), len(xs),
		quantileOf(xs, 0), quantileOf(xs, 0.25), quantileOf(xs, 0.75), quantileOf(xs, 1))
}

// fmtQuantile renders a completion percentile with its sample support.
func fmtQuantile(name string, c *completions, q float64) string {
	v, cens := c.quantile(q)
	mark := ""
	if cens {
		mark = " (censored: reads as the timeout)"
	}
	support := "supported"
	if !supported(c.n(), q) {
		support = "NOT supported"
	}
	return fmt.Sprintf("%-22s %10.2f ms   n=%d, %d beyond, %s%s", name, v, c.n(), beyond(c.n(), q), support, mark)
}
