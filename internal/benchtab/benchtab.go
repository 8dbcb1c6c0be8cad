// Package benchtab drives the paper's Table 1 ("Performance of
// Protect/Unprotect", §5.1) for cmd/protbench, lists Table 2's eight
// protection configurations ("Cost of Corruption Protection", §5.3) for
// the perfbench harness and the fault study, and renders aligned text
// tables.
package benchtab

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/protect"
)

// Format renders an aligned text table.
func Format(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// --- Table 1: performance of protect/unprotect ------------------------------

// Table1Row is one platform's protect/unprotect throughput.
type Table1Row struct {
	Platform    string
	PairsPerSec float64
	Simulated   bool
	// SPECint92 is the paper's integer performance figure where known,
	// showing that mprotect cost does not track integer speed.
	SPECint92 float64
	// PairNS is the per-pair latency distribution from a separate
	// instrumented sweep (untimed rows leave it empty).
	PairNS obs.HistogramSnapshot
}

// PaperTable1 is the paper's measured Table 1, which the simulated
// platforms are calibrated to reproduce.
var PaperTable1 = []Table1Row{
	{Platform: "SPARCstation 20", PairsPerSec: 15_600, SPECint92: 88.9},
	{Platform: "UltraSPARC 2", PairsPerSec: 43_000},
	{Platform: "HP 9000 C110", PairsPerSec: 3_300, SPECint92: 170.2},
	{Platform: "SGI Challenge DM", PairsPerSec: 8_200},
}

// MeasureMprotectPairs protects and then unprotects `pages` pages, `reps`
// times, over prot, and reports pairs per second. This is the paper's
// §5.1 microbenchmark (2000 pages, 50 repetitions).
func MeasureMprotectPairs(prot interface {
	Protect(mem.PageID) error
	Unprotect(mem.PageID) error
}, pages, reps int) (float64, error) {
	start := time.Now()
	for r := 0; r < reps; r++ {
		for p := 0; p < pages; p++ {
			if err := prot.Protect(mem.PageID(p)); err != nil {
				return 0, err
			}
			if err := prot.Unprotect(mem.PageID(p)); err != nil {
				return 0, err
			}
		}
	}
	elapsed := time.Since(start)
	return float64(pages*reps) / elapsed.Seconds(), nil
}

// MeasurePairHistogram runs the protect/unprotect loop with per-pair
// timing into an obs histogram and returns its snapshot (p50/p99 pair
// latency). It is a separate sweep from MeasureMprotectPairs so the
// clock reads cannot skew the Table 1 throughput numbers.
func MeasurePairHistogram(prot interface {
	Protect(mem.PageID) error
	Unprotect(mem.PageID) error
}, pages, reps int) (obs.HistogramSnapshot, error) {
	h := obs.NewRegistry().Histogram(obs.NameBenchPairNS)
	for r := 0; r < reps; r++ {
		for p := 0; p < pages; p++ {
			start := time.Now()
			if err := prot.Protect(mem.PageID(p)); err != nil {
				return obs.HistogramSnapshot{}, err
			}
			if err := prot.Unprotect(mem.PageID(p)); err != nil {
				return obs.HistogramSnapshot{}, err
			}
			h.Since(start)
		}
	}
	return h.Snapshot(), nil
}

// RunTable1 regenerates Table 1: the host's real mprotect throughput plus
// the four paper platforms modeled with calibrated per-call costs. pages
// and reps default to the paper's 2000 and 50 when zero.
func RunTable1(pages, reps int) ([]Table1Row, error) {
	if pages == 0 {
		pages = 2000
	}
	if reps == 0 {
		reps = 50
	}
	var rows []Table1Row

	// Host row: real mprotect over an mmap-backed arena.
	arena, err := mem.NewArena(pages*os.Getpagesize(), os.Getpagesize())
	if err != nil {
		return nil, err
	}
	defer arena.Close()
	if arena.Mmapped() {
		if prot, err := mem.NewMprotectProtector(arena); err == nil {
			pps, err := MeasureMprotectPairs(prot, pages, reps)
			if err != nil {
				return nil, err
			}
			hist, err := MeasurePairHistogram(prot, pages, 1)
			if err != nil {
				return nil, err
			}
			if err := prot.UnprotectAll(); err != nil {
				return nil, err
			}
			rows = append(rows, Table1Row{Platform: "this host (real mprotect)", PairsPerSec: pps, PairNS: hist})
		}
	}

	// Simulated platforms: per-call cost calibrated to the paper's
	// pairs/second (one pair = two calls). A tenth of the pages and
	// repetitions suffices for the slow simulated platforms, whose
	// throughput is cost-determined; both floor at 1 so small runs
	// still measure something.
	simPages, simReps := max(pages/10, 1), max(reps/10, 1)
	for _, p := range PaperTable1 {
		perPair := time.Duration(float64(time.Second) / p.PairsPerSec)
		sim := mem.NewSimProtector(pages, perPair/2)
		pps, err := MeasureMprotectPairs(sim, simPages, simReps)
		if err != nil {
			return nil, err
		}
		hist, err := MeasurePairHistogram(sim, simPages, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Platform: p.Platform + " (simulated)", PairsPerSec: pps,
			Simulated: true, SPECint92: p.SPECint92, PairNS: hist,
		})
	}
	return rows, nil
}

// FormatTable1 renders Table 1 rows alongside the paper's figures, with
// per-pair latency quantiles from the instrumented sweep.
func FormatTable1(rows []Table1Row) string {
	var out [][]string
	for _, r := range rows {
		spec := ""
		if r.SPECint92 > 0 {
			spec = fmt.Sprintf("%.1f", r.SPECint92)
		}
		paper := ""
		for _, p := range PaperTable1 {
			if strings.HasPrefix(r.Platform, p.Platform) {
				paper = fmt.Sprintf("%.0f", p.PairsPerSec)
			}
		}
		p50, p99 := "-", "-"
		if r.PairNS.Count > 0 {
			p50 = fmt.Sprintf("%.1f", float64(r.PairNS.Quantile(0.5))/1e3)
			p99 = fmt.Sprintf("%.1f", float64(r.PairNS.Quantile(0.99))/1e3)
		}
		out = append(out, []string{r.Platform, fmt.Sprintf("%.0f", r.PairsPerSec), paper, spec, p50, p99})
	}
	return Format([]string{"Platform", "pairs/second", "paper pairs/s", "SPECint92", "pair p50 us", "pair p99 us"}, out)
}

// --- Table 2: cost of corruption protection ---------------------------------

// SchemeSpec is one row of Table 2.
type SchemeSpec struct {
	// Label matches the paper's row name.
	Label string
	// Direct and Indirect describe the protection level, as in the paper
	// ("None", "Correct", "Prevent", "Unneeded").
	Direct   string
	Indirect string
	// Protect is the scheme configuration.
	Protect protect.Config
	// PaperOps and PaperSlowdown are the paper's measurements for
	// comparison output.
	PaperOps      float64
	PaperSlowdown float64
}

// Table2Schemes returns the paper's eight configurations in Table 2
// order. useRealMprotect selects the real system call for the Memory
// Protection row (otherwise a simulated protector with zero added cost).
func Table2Schemes(useRealMprotect bool) []SchemeSpec {
	return []SchemeSpec{
		{Label: "Baseline", Direct: "None", Indirect: "None",
			Protect: protect.Config{Kind: protect.KindBaseline}, PaperOps: 417, PaperSlowdown: 0},
		{Label: "Data CW", Direct: "Correct", Indirect: "None",
			Protect: protect.Config{Kind: protect.KindDataCW, RegionSize: 512}, PaperOps: 380, PaperSlowdown: 8.5},
		{Label: "Data CW w/Precheck, 64 byte", Direct: "Correct", Indirect: "Prevent",
			Protect: protect.Config{Kind: protect.KindPrecheck, RegionSize: 64}, PaperOps: 366, PaperSlowdown: 12.2},
		{Label: "Data CW w/ReadLog", Direct: "Correct", Indirect: "Correct",
			Protect: protect.Config{Kind: protect.KindReadLog, RegionSize: 512}, PaperOps: 345, PaperSlowdown: 17.1},
		{Label: "Data CW w/CW ReadLog", Direct: "Correct", Indirect: "Correct",
			Protect: protect.Config{Kind: protect.KindCWReadLog, RegionSize: 64}, PaperOps: 323, PaperSlowdown: 22.4},
		{Label: "Data CW w/Precheck, 512 byte", Direct: "Correct", Indirect: "Prevent",
			Protect: protect.Config{Kind: protect.KindPrecheck, RegionSize: 512}, PaperOps: 311, PaperSlowdown: 25.4},
		{Label: "Memory Protection", Direct: "Prevent", Indirect: "Unneeded",
			Protect: protect.Config{Kind: protect.KindHW, ForceSimProtect: !useRealMprotect}, PaperOps: 257, PaperSlowdown: 38.2},
		{Label: "Data CW w/Precheck, 8K byte", Direct: "Correct", Indirect: "Prevent",
			Protect: protect.Config{Kind: protect.KindPrecheck, RegionSize: 8192}, PaperOps: 115, PaperSlowdown: 72.4},
	}
}
