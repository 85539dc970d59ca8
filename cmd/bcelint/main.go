// Command bcelint runs BCE's contract-enforcing analyzer suite
// (internal/analyzers) over the module — six determinism rules
// (nowalltime, seededrand, mapiter, ctxpass, seedderive, errdrop),
// three concurrency rules (guardedby, goleak, lockorder), and two
// allocation rules (hotalloc, noretain) — with interprocedural fact
// propagation surfacing laundered violations at the governed call site
// (see DESIGN.md §10). CI runs it as `go run ./cmd/bcelint -json ./...`;
// any finding exits 1. A deliberate exception is accepted in place, by
// a //bce:* directive with its required reason.
//
// With -json, each diagnostic is one JSON object per line (analyzer,
// position, message, call chain) for CI annotations and editors; plain
// text renders the chain indented under the finding.
//
// Analyzers see only non-test Go files — tests may use wall time,
// ad-hoc seeded RNGs, and unguarded scaffolding freely.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"bce/internal/analyzers"
)

// jsonPos is a diagnostic or chain-step position in the -json stream.
type jsonPos struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// jsonStep is one hop of a laundered-fact call chain.
type jsonStep struct {
	Func string  `json:"func"`
	Pos  jsonPos `json:"pos"`
	What string  `json:"what"`
}

// jsonDiag is the one-object-per-line shape CI and editors consume.
type jsonDiag struct {
	Analyzer string     `json:"analyzer"`
	Pos      jsonPos    `json:"pos"`
	Message  string     `json:"message"`
	Chain    []jsonStep `json:"chain,omitempty"`
}

func main() {
	jsonOut := flag.Bool("json", false,
		"emit one JSON diagnostic object per line (analyzer, pos, message, chain)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: bcelint [-json] [packages]\n\n")
		for _, rule := range analyzers.Suite() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", rule.Analyzer.Name, rule.Analyzer.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analyzers.RunSuite("", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcelint:", err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			jd := jsonDiag{
				Analyzer: d.Analyzer,
				Pos:      jsonPos{File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column},
				Message:  d.Message,
			}
			for _, s := range d.Chain {
				jd.Chain = append(jd.Chain, jsonStep{
					Func: s.Func,
					Pos:  jsonPos{File: s.Pos.Filename, Line: s.Pos.Line, Col: s.Pos.Column},
					What: s.What,
				})
			}
			if err := enc.Encode(jd); err != nil {
				fmt.Fprintln(os.Stderr, "bcelint:", err)
				os.Exit(2)
			}
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
			for _, s := range d.Chain {
				fmt.Printf("\t%s (%s): %s\n", s.Func, s.Pos, s.What)
			}
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "bcelint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}
