// Command npbescape reports, baselines, and diffs the Go compiler's
// escape-analysis verdicts for the suite's hot packages. It is the
// compiler-precision leg of the allocation discipline: hotalloc flags
// allocation syntax in hot regions, allocgate measures steady-state
// allocations per iteration, and npbescape pins the full set of heap
// escapes the compiler proves, so a refactor that quietly turns a
// stack value into a heap allocation fails CI with a named site.
//
// Usage:
//
//	npbescape [-pkgs a,b,...]                 # print the npbgo/escape/v1 report
//	npbescape -o report.jsonl                 # write the report to a file
//	npbescape -update baseline.jsonl          # rewrite the committed baseline
//	npbescape -diff baseline.jsonl            # exit 1 on escapes not in the baseline
//
// Run it from the repository root: the compiler prints file paths
// relative to the working directory, and the baseline stores them
// verbatim. Reports diff by (package, file, message) with
// multiplicities, so line-number churn from unrelated edits does not
// invalidate the baseline — only a genuinely new escape (or a new
// occurrence of a known one) does. Escapes that disappear are reported
// as improvements; refresh the baseline with -update to lock them in.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"npbgo/internal/escape"
)

// defaultPkgs are the hot packages the report covers: the eight kernels
// plus the driver (kernel) whose loop runs their timed steps, the shared
// runtime (team), the solver core (nscore) they inline, and the counter
// sampler (perfcount) whose RegionStart/RegionEnd run inside every
// sampled region.
const defaultPkgs = "./internal/bt,./internal/cg,./internal/ep,./internal/ft," +
	"./internal/is,./internal/lu,./internal/mg,./internal/sp,./internal/kernel," +
	"./internal/team,./internal/nscore,./internal/perfcount"

func main() {
	var (
		pkgs   = flag.String("pkgs", defaultPkgs, "comma-separated packages to analyze")
		out    = flag.String("o", "", "write the report to this file instead of stdout")
		diff   = flag.String("diff", "", "compare against this baseline report; exit 1 on new escapes")
		update = flag.String("update", "", "write the report to this baseline file")
	)
	flag.Parse()
	if err := run(*pkgs, *out, *diff, *update); err != nil {
		fmt.Fprintln(os.Stderr, "npbescape:", err)
		os.Exit(1)
	}
}

func run(pkgs, out, diff, update string) error {
	if diff != "" && update != "" {
		return fmt.Errorf("-diff and -update are mutually exclusive")
	}
	recs, err := report(strings.Split(pkgs, ","))
	if err != nil {
		return err
	}

	switch {
	case update != "":
		f, err := os.Create(update)
		if err != nil {
			return err
		}
		if err := escape.Write(f, recs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("npbescape: wrote %d escape records to %s\n", len(recs), update)
		return nil

	case diff != "":
		f, err := os.Open(diff)
		if err != nil {
			return err
		}
		base, err := escape.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		added, removed := escape.Diff(base, recs)
		for _, d := range removed {
			fmt.Printf("npbescape: improved: %s no longer has %q (%d -> %d); refresh with -update %s\n",
				d.File, d.Msg, d.Base, d.Cur, diff)
		}
		for _, d := range added {
			fmt.Printf("npbescape: NEW ESCAPE %s:%d:%d: %s (%s; baseline %d, now %d)\n",
				d.Sample.File, d.Sample.Line, d.Sample.Col, d.Msg, d.Pkg, d.Base, d.Cur)
		}
		if len(added) > 0 {
			return fmt.Errorf("%d new escape site(s) versus %s", len(added), diff)
		}
		fmt.Printf("npbescape: %d escape records match %s\n", len(recs), diff)
		return nil

	default:
		w := os.Stdout
		if out != "" {
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		return escape.Write(w, recs)
	}
}

// report compiles pkgs with escape diagnostics enabled and parses the
// result. The build cache replays compiler diagnostics, so repeated
// runs are fast and byte-identical.
func report(pkgs []string) ([]escape.Record, error) {
	args := append([]string{"build", "-gcflags=-m=2"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Env = os.Environ()
	outBytes, err := cmd.CombinedOutput()
	output := string(outBytes)
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, output)
	}
	return escape.Parse(output), nil
}
