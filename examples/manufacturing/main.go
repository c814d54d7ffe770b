// Manufacturing: a forward-chaining job-shop where orders advance
// through cutting, drilling and polishing — the "engineering processes,
// manufacturing" applications the paper's introduction motivates. The
// same program runs serially (OPS5 semantics) and concurrently (rounds
// of transactions, §5.2), and the example verifies both reach the same
// final state.
package main

import (
	"fmt"
	"io"
	"log"
	"strings"

	"prodsys"
)

const rules = `
(literalize Order id stage)
(literalize Station name free)
(literalize Log id stage)

(p start-cut
    (Order ^id <o> ^stage new)
    (Station ^name cutter ^free yes)
  -->
    (modify 1 ^stage cut)
    (make Log ^id <o> ^stage cut))

(p cut-to-drill
    (Order ^id <o> ^stage cut)
    (Station ^name drill ^free yes)
  -->
    (modify 1 ^stage drilled)
    (make Log ^id <o> ^stage drilled))

(p drill-to-polish
    (Order ^id <o> ^stage drilled)
    (Station ^name polisher ^free yes)
  -->
    (modify 1 ^stage done)
    (make Log ^id <o> ^stage done))

(Station cutter yes)
(Station drill yes)
(Station polisher yes)
`

const orders = 12

func build() *prodsys.System {
	sys, err := prodsys.Load(rules, prodsys.Options{Out: io.Discard})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < orders; i++ {
		if _, err := sys.Assert("Order", i, "new"); err != nil {
			log.Fatal(err)
		}
	}
	return sys
}

func doneCount(sys *prodsys.System) int {
	n := 0
	for _, row := range sys.WMClass("Order") {
		if strings.Contains(row, "done") {
			n++
		}
	}
	return n
}

func main() {
	// Serial OPS5-style execution: one firing per cycle.
	serial := build()
	sres, err := serial.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial:     %d firings, %d cycles, %d/%d orders done\n",
		sres.Firings, sres.Cycles, doneCount(serial), orders)

	// Concurrent execution: each applicable instantiation is a
	// transaction; the conflict set drains in rounds (§5.2).
	conc := build()
	cres, err := conc.RunConcurrent()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("concurrent: %d firings, %d rounds, %d aborts, %d/%d orders done\n",
		cres.Firings, cres.Cycles, cres.Aborts, doneCount(conc), orders)

	if serial.WM() == conc.WM() {
		fmt.Println("\nfinal states are identical — the concurrent schedule is")
		fmt.Println("equivalent to the serial one, as §5.2 requires.")
	} else {
		fmt.Println("\nSTATES DIVERGED — serializability violated!")
	}

	fmt.Println("\nproduction log of the concurrent run:")
	for _, row := range conc.WMClass("Log") {
		fmt.Println("   ", row)
	}
	fmt.Println("\nexecution statistics (concurrent run):")
	fmt.Print(prodsys.FormatStats(conc.Metrics().Counters, "txn_", "lock", "serial_ops", "rule_"))
}
