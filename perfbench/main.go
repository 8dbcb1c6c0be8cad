// Command perfbench is the repository's benchmark. It drives the engine
// through three closed-loop workloads — the paper's Table 2 protocol
// (table2), two-client TPC-B with checkpoints and a crash (oltp), and a
// sharded key-value store behind the wire protocol (kv-wire) — checks each
// run's output, and prints its metrics. See README.md.
//
// Usage:
//
//	perfbench --workload table2|oltp|kv-wire|all --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics, or with --trace 1 the
// per-layer ones). A run whose output fails a check prints correct=false
// with no metrics and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

var workloads = map[string]func(*env) (*result, error){
	"table2":  runTable2,
	"oltp":    runOLTP,
	"kv-wire": runKVWire,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"table2", "oltp", "kv-wire"}

// endToEnd lists the end-to-end metrics, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"recovery_s", "s"},
	{"setup_s", "s"},
	{"space_amp", "ratio"},
	{"max_rss_mb", "MB"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the final JSON line.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runFile is the full record of one run, kept in the workdir.
type runFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     hostFacts          `json:"host"`
	Line     line               `json:"result"`
	Report   []metric           `json:"report"`
	Layers   map[string]float64 `json:"layers,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "table2, oltp, kv-wire, or all")
	seed := flag.Int64("seed", 1, "seed every generated key, delta and value derives from")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_work", "directory for databases, results and traces")
	flag.Parse()

	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *workdir))
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload table2|oltp|kv-wire|all --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := runOne(*workload, run, *seed, *seconds, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runOne(name string, run func(*env) (*result, error), seed int64, seconds float64, trace bool, workdir string) error {
	dbdir := filepath.Join(workdir, "run-"+name)
	if err := os.RemoveAll(dbdir); err != nil {
		return err
	}
	if err := os.MkdirAll(dbdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dbdir)
	host, err := probeHost(dbdir)
	if err != nil {
		return err
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v\n", name, seed, seconds, trace)
	fmt.Printf("# host: %s\n", host)
	fmt.Printf("# flush policy: %s\n", flushPolicy)

	e := &env{workdir: dbdir, seed: seed, seconds: seconds, trace: trace, epoch: time.Now()}
	res, err := run(e)
	out := runFile{Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Host: host}
	if err != nil {
		// A failed check or an operation that should not fail: report no
		// numbers.
		out.Line = line{Correct: false, Attempted: 1, Metrics: map[string]value{}}
		printLine(out.Line)
		return err
	}
	res.report = append(res.report, metric{Name: "max_rss_mb", Value: maxRSSMB(), Unit: "MB"})
	out.Report = res.report
	out.Layers = res.layers
	out.Line = line{Correct: true, Attempted: max(res.attempted, 1), Failed: res.fails.total(), Metrics: map[string]value{}}
	if trace {
		for _, n := range perLayerNames {
			out.Line.Metrics[n] = value{Value: res.layers[n], Unit: layerUnit(n)}
		}
	} else {
		vals := map[string]float64{
			"ops_per_s":      res.opsPerS,
			"latency_p50_ms": res.lat.P50,
			"latency_p99_ms": res.lat.Tail,
			"recovery_s":     res.recoveryS,
			"setup_s":        res.setupS,
			"space_amp":      res.spaceAmp,
			"max_rss_mb":     maxRSSMB(),
		}
		for _, m := range endToEnd {
			out.Line.Metrics[m.name] = value{Value: vals[m.name], Unit: m.unit}
		}
	}
	printReport(res, trace)
	if err := writeJSON(filepath.Join(workdir, fmt.Sprintf("result-%s.json", name)), out); err != nil {
		return err
	}
	printLine(out.Line)
	return nil
}

const flushPolicy = "every commit forces the log; S=1 (one log stream); engine defaults (LockTimeout 2s, Workers=GOMAXPROCS); databases on the page cache: fsync returns without reaching the device (see device.go)"

func printReport(res *result, trace bool) {
	fmt.Printf("%-40s %14s  %-6s %8s  %s\n", "metric", "value", "unit", "n", "note")
	p := func(m metric) {
		n := ""
		if m.N > 0 {
			n = fmt.Sprint(m.N)
		}
		fmt.Printf("%-40s %14.6g  %-6s %8s  %s\n", m.Name, m.Value, m.Unit, n, m.Note)
	}
	tailNote := fmt.Sprintf("p%g of %s latency; %s", 100*res.lat.TailQ, res.latUnit, res.latTailNote)
	p(metric{Name: "ops_per_s", Value: res.opsPerS, Unit: "ops/s"})
	p(metric{Name: "latency_p50_ms", Value: res.lat.P50, Unit: "ms", N: res.lat.N, Note: res.latUnit})
	p(metric{Name: "latency_p99_ms", Value: res.lat.Tail, Unit: "ms", N: res.lat.N, Note: tailNote})
	p(metric{Name: "recovery_s", Value: res.recoveryS, Unit: "s", N: drillCopies, Note: "median of recovered copies"})
	p(metric{Name: "setup_s", Value: res.setupS, Unit: "s"})
	p(metric{Name: "space_amp", Value: res.spaceAmp, Unit: "ratio"})
	attempts := max(res.attempted, 1)
	p(metric{Name: "failed_frac", Value: float64(res.fails.total()) / float64(attempts), Unit: "ratio", N: res.attempted, Note: "failed attempts / attempts"})
	for i, name := range failNames {
		p(metric{Name: "failed." + name, Value: float64(res.fails[i]), Unit: "count", N: res.attempted})
	}
	for _, m := range res.report {
		p(m)
	}
	if trace {
		for _, n := range perLayerNames {
			p(metric{Name: n, Value: res.layers[n], Unit: layerUnit(n)})
		}
	}
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "ops_per_s"):
		return "ops/s"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "self_share"):
		return "ratio"
	case strings.HasSuffix(name, "bytes_per_op"):
		return "B/op"
	case strings.HasSuffix(name, "_per_op"):
		return "1/op"
	case strings.HasSuffix(name, "_per_txn"):
		return "1/txn"
	case strings.HasSuffix(name, "_per_kop"):
		return "1/kop"
	case strings.HasSuffix(name, "records.mean"):
		return "records"
	case strings.HasSuffix(name, "bytes_written"):
		return "B"
	}
	return "count"
}

func printLine(l line) {
	b, err := json.Marshal(l)
	if err != nil {
		panic(err) // a map of plain floats always marshals
	}
	fmt.Println(string(b))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func traceFile(e *env, name string) string {
	return filepath.Join(filepath.Dir(e.workdir), "trace-"+name+".jsonl")
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// hostFacts are reported with every result.
type hostFacts struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	WorkdirFS  string  `json:"workdir_fs"`
	FsyncP50Ms float64 `json:"fsync_p50_ms"`
	FsyncTail  float64 `json:"fsync_tail_ms"`
	FsyncTailQ float64 `json:"fsync_tail_q"`
	FsyncN     int     `json:"fsync_n"`
}

func (h hostFacts) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s workdir_fs=%s fsync_p50_ms=%.3f fsync_p%g_ms=%.3f (n=%d)",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.WorkdirFS, h.FsyncP50Ms, 100*h.FsyncTailQ, h.FsyncTail, h.FsyncN)
}

// fsyncProbes is how many 4 KiB write+fsync pairs measure the workdir:
// enough for a p99 with 10 samples beyond it.
const fsyncProbes = 1000

func probeHost(dir string) (hostFacts, error) {
	h := hostFacts{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), WorkdirFS: fsType(dir)}
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.Create(path)
	if err != nil {
		return h, err
	}
	buf := make([]byte, 4096)
	var lats []float64
	for i := 0; i < fsyncProbes; i++ {
		start := time.Now()
		if _, err := f.WriteAt(buf, int64(i)*4096); err != nil {
			f.Close()
			return h, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return h, err
		}
		lats = append(lats, float64(time.Since(start))/1e6)
	}
	if err := f.Close(); err != nil {
		return h, err
	}
	d := summarize(lats)
	h.FsyncP50Ms, h.FsyncTail, h.FsyncTailQ, h.FsyncN = d.P50, d.Tail, d.TailQ, d.N
	return h, os.Remove(path)
}

// fsType names the filesystem holding dir: tmpfs means fsync never
// reaches a device.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "disk(ext4)"
	case 0x58465342:
		return "disk(xfs)"
	case 0x9123683E:
		return "disk(btrfs)"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("disk(0x%x)", uint64(st.Type))
}
