package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// cpuLayers are the profile buckets reported as cpu.<layer>: the
// repository's packages, the runtime's garbage collector and system
// calls, the rest of the runtime (scheduler, timers), this benchmark's
// own code, and other.
var cpuLayers = []string{
	"core", "fetch", "simnet", "transport", "wire", "kzg", "rs", "gf65536", "blob", "ids",
	"gc", "syscall", "runtime", "bench", "other",
}

// repoLayers are the cpuLayers that are packages under pandas/internal.
var repoLayers = map[string]bool{
	"core": true, "fetch": true, "simnet": true, "transport": true, "wire": true,
	"kzg": true, "rs": true, "gf65536": true, "blob": true, "ids": true,
}

// foldIntoCaller hides frames that do work on behalf of their caller:
// the standard library (hashing, signatures, copying, networking) and
// the runtime's map, memory and allocation helpers, and compiler-made
// hash and equality functions. Their samples count
// toward the nearest visible caller, so sha256 time counts as kzg and a
// map lookup in the planner as core. Garbage collection, system calls
// and the scheduler stay visible as their own layers.
const foldIntoCaller = `^(bufio|bytes|compress|container|context|crypto|encoding|errors|fmt|hash|internal/bytealg|internal/poll|internal/runtime/maps|io|math|net|os|slices|maps|sort|strconv|strings|sync|time|unicode|vendor)[./]` +
	`|^(aeshashbody|memeqbody|indexbytebody|cmpbody)$|^type:` +
	`|^runtime\.(map|memhash|memequal|memmove|memclr|duff|growslice|makeslice|makemap|mallocgc|newobject|nextFreeFast|heapSetType|efaceeq|ifaceeq|typedmemmove|typedmemclr|typedslicecopy|convT|concatstring|slicebytetostring|rawbyteslice|rawstring|(\*mspan)\.heapBits|(\*mcache)\.nextFree|(\*mcache)\.refill)`

// gcPrefixes name runtime functions whose samples are garbage collection
// (marking, scanning, sweeping, write barriers).
var gcPrefixes = []string{
	"runtime.gc", "runtime.scan", "runtime.grey", "runtime.findObject",
	"runtime.markBits", "runtime.markroot", "runtime.(*gcWork)", "runtime.(*gcBits)",
	"runtime.sweep", "runtime.bgsweep", "runtime.(*mspan).sweep", "runtime.wbBuf",
	"runtime.typePointers", "runtime.(*mspan).typePointersOf", "runtime.spanOf",
	"runtime.(*gcControllerState)", "runtime.(*mheap).reclaim", "runtime.bulkBarrier",
}

// layerOf maps a profiled function name to its cpu layer.
func layerOf(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	pkg := fn
	if slash := strings.LastIndex(pkg, "/"); slash >= 0 {
		if dot := strings.Index(pkg[slash:], "."); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.Index(pkg, "."); dot >= 0 {
		pkg = pkg[:dot]
	}
	switch {
	case strings.HasPrefix(pkg, "pandas/internal/"):
		if name := strings.TrimPrefix(pkg, "pandas/internal/"); repoLayers[name] {
			return name
		}
		return "other"
	case pkg == "main" || strings.HasPrefix(pkg, "pandas/slotbench"):
		return "bench"
	case pkg == "syscall" || pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime":
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
		return "runtime"
	}
	return "other"
}

// profileRow is one line of `go tool pprof -top`: a function and the
// CPU time sampled in it (flat).
type profileRow struct {
	fn   string
	flat time.Duration
}

// parseTop reads the rows of `go tool pprof -top` output, skipping the
// header.
func parseTop(out string) []profileRow {
	var rows []profileRow
	sc := bufio.NewScanner(strings.NewReader(out))
	header := true
	for sc.Scan() {
		line := sc.Text()
		if header {
			header = !strings.Contains(line, "flat%")
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		d, err := parsePprofDuration(f[0])
		if err != nil {
			continue
		}
		rows = append(rows, profileRow{fn: strings.Join(f[5:], " "), flat: d})
	}
	return rows
}

// parsePprofDuration parses pprof's time column ("1.25s", "340ms", "0").
func parsePprofDuration(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	for _, u := range []struct {
		suffix string
		unit   time.Duration
	}{{"mins", time.Minute}, {"hrs", time.Hour}, {"ns", time.Nanosecond}, {"us", time.Microsecond}, {"ms", time.Millisecond}, {"s", time.Second}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				return 0, err
			}
			return time.Duration(v * float64(u.unit)), nil
		}
	}
	return 0, fmt.Errorf("pprof duration %q", s)
}

// foldRows sums flat time by layer and returns each layer's share of the
// total; every layer in cpuLayers is present.
func foldRows(rows []profileRow) map[string]float64 {
	byLayer := make(map[string]time.Duration)
	var total time.Duration
	for _, r := range rows {
		byLayer[layerOf(r.fn)] += r.flat
		total += r.flat
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = ratio(float64(byLayer[l]), float64(total))
	}
	return shares
}

// foldProfile runs the installed `go tool pprof -top` on a CPU profile
// and folds its rows by layer.
func foldProfile(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-hide="+foldIntoCaller, profile)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	rows := parseTop(string(out))
	if len(rows) == 0 {
		return nil, fmt.Errorf("go tool pprof: no rows in profile %s", profile)
	}
	return foldRows(rows), nil
}
