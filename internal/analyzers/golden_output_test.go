package analyzers_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"bce/internal/analyzers"
)

var update = flag.Bool("update", false, "rewrite testdata/suite_output.jsonl from the current output")

// goldenStep and goldenDiag are the serialized form of one diagnostic:
// `// want` patterns only match message text, so this file is what pins
// chain steps and every position.
type goldenStep struct {
	Func string `json:"func"`
	Pos  string `json:"pos"`
	What string `json:"what"`
}

type goldenDiag struct {
	Analyzer string       `json:"analyzer"`
	Pos      string       `json:"pos"`
	Message  string       `json:"message"`
	Chain    []goldenStep `json:"chain,omitempty"`
}

// TestSuiteOutputGolden runs every golden dir under the rules its
// `// want` test uses and compares the full output — messages, chains
// and positions relative to testdata/src — with
// testdata/suite_output.jsonl. Run with -update to rewrite the file.
func TestSuiteOutputGolden(t *testing.T) {
	root, err := filepath.Abs(golden(""))
	if err != nil {
		t.Fatal(err)
	}
	rel := func(p token.Position) string {
		abs, err := filepath.Abs(p.Filename)
		if err != nil {
			t.Fatal(err)
		}
		r, err := filepath.Rel(root, abs)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s:%d:%d", filepath.ToSlash(r), p.Line, p.Column)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	emit := func(diags []analyzers.Diagnostic) {
		for _, d := range diags {
			gd := goldenDiag{Analyzer: d.Analyzer, Pos: rel(d.Pos), Message: d.Message}
			for _, s := range d.Chain {
				gd.Chain = append(gd.Chain, goldenStep{Func: s.Func, Pos: rel(s.Pos), What: s.What})
			}
			if err := enc.Encode(gd); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, m := range moduleGoldens {
		pkgs, err := analyzers.Load(golden(m.dir), []string{"./..."})
		if err != nil {
			t.Fatalf("loading %s: %v", m.dir, err)
		}
		diags, err := analyzers.RunRules(pkgs, m.rules())
		if err != nil {
			t.Fatalf("running rules on %s: %v", m.dir, err)
		}
		emit(diags)
	}
	for _, g := range packageGoldens {
		pkg, err := analyzers.LoadDir(golden(g.dir))
		if err != nil {
			t.Fatalf("loading %s: %v", g.dir, err)
		}
		diags, err := analyzers.RunAnalyzer(g.analyzer, pkg)
		if err != nil {
			t.Fatalf("running %s on %s: %v", g.analyzer.Name, g.dir, err)
		}
		emit(diags)
	}

	path := filepath.Join("testdata", "suite_output.jsonl")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gotLines := bytes.Split(got, []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w []byte
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
