package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runAll runs every workload, each in its own process so that its peak
// RSS is its own, then prints the summary table: Table 2's rows, and each
// workload's throughput, latency, recovery, failure, set-up, space and
// memory figures by name.
func runAll(seed int64, seconds float64, trace int, workdir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	total := line{Correct: true, Metrics: map[string]value{}}
	var rows [][]string
	add := func(name, workload string, v float64, unit string, n int) {
		total.Metrics[name+"."+workload] = value{Value: v, Unit: unit}
		ns := ""
		if n > 0 {
			ns = strconv.Itoa(n)
		}
		rows = append(rows, []string{name, workload, strconv.FormatFloat(v, 'g', 6, 64), unit, ns})
	}
	for _, w := range workloadOrder {
		cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--workdir", workdir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			total.Correct = false
			continue
		}
		b, err := os.ReadFile(filepath.Join(workdir, "result-"+w+".json"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			total.Correct = false
			continue
		}
		var rf runFile
		if err := json.Unmarshal(b, &rf); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			total.Correct = false
			continue
		}
		total.Attempted += rf.Line.Attempted
		total.Failed += rf.Line.Failed
		report := map[string]metric{}
		for _, m := range rf.Report {
			report[m.Name] = m
		}
		if w == "table2" {
			for _, r := range table2RowNames {
				m := report["ops_per_s."+r]
				add(m.Name, w, m.Value, m.Unit, m.N)
			}
		}
		if trace == 0 && w != "table2" {
			m := report["txn_per_s"]
			n := report["txn_per_s.whole_run"].N // latency samples: one per committed txn
			add("txn_per_s", w, m.Value, m.Unit, m.N)
			add("txn_p50_ms", w, rf.Line.Metrics["latency_p50_ms"].Value, "ms", n)
			add("txn_p99_ms", w, rf.Line.Metrics["latency_p99_ms"].Value, "ms", n)
		}
		if trace == 0 && w == "oltp" {
			add("recovery_s", w, rf.Line.Metrics["recovery_s"].Value, "s", drillCopies)
		}
		add("failed_frac", w, float64(rf.Line.Failed)/float64(rf.Line.Attempted), "ratio", rf.Line.Attempted)
		if trace == 0 {
			add("setup_s", w, rf.Line.Metrics["setup_s"].Value, "s", setupRepeatsOf(w))
			if w != "table2" {
				add("space_amp", w, rf.Line.Metrics["space_amp"].Value, "ratio", 0)
			}
			add("max_rss_mb", w, rf.Line.Metrics["max_rss_mb"].Value, "MB", 0)
		}
	}
	fmt.Printf("\n%-24s %-8s %14s  %-6s %8s\n", "metric", "workload", "value", "unit", "n")
	for _, r := range rows {
		fmt.Printf("%-24s %-8s %14s  %-6s %8s\n", r[0], r[1], r[2], r[3], r[4])
	}
	total.Attempted = max(total.Attempted, 1)
	printLine(total)
	if !total.Correct {
		return 1
	}
	return 0
}

// setupRepeatsOf is how many set-ups a workload's setup_s summarises:
// table2 sums its eight rows' single set-ups, the others take a median.
func setupRepeatsOf(w string) int {
	if w == "table2" {
		return len(table2RowNames)
	}
	return setupRepeats
}
