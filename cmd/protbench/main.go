// Command protbench regenerates the paper's Table 1 ("Performance of
// Protect/Unprotect", §5.1): it measures mprotect/unprotect pairs per
// second with the real system call on this host, and reproduces the four
// 1990s platforms of the paper with calibrated simulated protectors to
// demonstrate the result that motivated the codeword schemes — protection
// cost varies widely across platforms and does not track integer speed
// (the HP 9000 C110 has ~2x the SPECint92 of the SPARCstation 20 but
// under a quarter of its mprotect throughput).
//
// Usage:
//
//	protbench [-pages N] [-reps N]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchtab"
)

func main() {
	pages := flag.Int("pages", 2000, "pages per repetition (paper: 2000)")
	reps := flag.Int("reps", 50, "repetitions (paper: 50)")
	flag.Parse()
	if *pages < 1 || *reps < 1 {
		fmt.Fprintln(os.Stderr, "protbench: -pages and -reps must be at least 1")
		flag.Usage()
		os.Exit(2)
	}

	fmt.Println("Table 1: Performance of Protect/Unprotect")
	fmt.Printf("(%d pages protected+unprotected, %d repetitions)\n\n", *pages, *reps)
	rows, err := benchtab.RunTable1(*pages, *reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "protbench:", err)
		os.Exit(1)
	}
	fmt.Print(benchtab.FormatTable1(rows))
	fmt.Println("\nSimulated rows are calibrated to the paper's measurements; the host row")
	fmt.Println("is the real mprotect system call over an anonymous mapping.")
}
