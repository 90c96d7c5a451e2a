// Command gengolden regenerates the pinned verification-reference
// tables for the pseudo-applications (BT, SP, LU) by running each at
// the requested classes and printing the Go literals that live in the
// benchmarks' reference maps. This documents — and makes reproducible —
// the provenance of those values (see DESIGN.md §5): they are this
// implementation's deterministic outputs, cross-checked against the
// published verify.f constants.
//
//	gengolden -classes S,W -bench BT,SP,LU
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"npbgo/internal/bt"
	"npbgo/internal/kernel"
	"npbgo/internal/lu"
	"npbgo/internal/sp"
)

func fiveVec(v [5]float64) string {
	return fmt.Sprintf("[5]float64{%.13e, %.13e, %.13e, %.13e, %.13e}",
		v[0], v[1], v[2], v[3], v[4])
}

func main() {
	classesFlag := flag.String("classes", "S", "comma-separated class letters")
	benchFlag := flag.String("bench", "BT,SP,LU", "comma-separated benchmark subset")
	flag.Parse()

	var classes []byte
	for _, tok := range strings.Split(*classesFlag, ",") {
		classes = append(classes, strings.ToUpper(strings.TrimSpace(tok))[0])
	}
	for _, tok := range strings.Split(*benchFlag, ",") {
		name := strings.ToUpper(strings.TrimSpace(tok))
		for _, cl := range classes {
			switch name {
			case "BT":
				b, err := bt.New(cl, 1)
				run(b, err)
				fmt.Printf("// bt reference\n'%c': {\n\txcr: %s,\n\txce: %s,\n},\n",
					cl, fiveVec(b.XCR), fiveVec(b.XCE))
			case "SP":
				b, err := sp.New(cl, 1)
				run(b, err)
				fmt.Printf("// sp reference\n'%c': {\n\txcr: %s,\n\txce: %s,\n},\n",
					cl, fiveVec(b.XCR), fiveVec(b.XCE))
			case "LU":
				b, err := lu.New(cl, 1)
				run(b, err)
				fmt.Printf("// lu reference\n'%c': {\n\txcr: %s,\n\txce: %s,\n\txci: %.13e,\n},\n",
					cl, fiveVec(b.RsdNm), fiveVec(b.ErrNm), b.Frc)
			default:
				fmt.Fprintf(os.Stderr, "gengolden: unknown benchmark %q\n", name)
				os.Exit(2)
			}
		}
	}
}

// run drives b once through the kernel driver, leaving its
// verification quantities in b's exported fields.
func run(b kernel.Benchmark, err error) {
	die(err)
	_, err = kernel.Run(context.Background(), b, kernel.Config{})
	die(err)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gengolden:", err)
		os.Exit(1)
	}
}
