package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the golden files from current analyzer output:
//
//	go test ./internal/lint -run TestFixtures -update
var update = flag.Bool("update", false, "rewrite fixture golden files")

// sharedLoader caches stdlib type-checking across every test in the
// package; building a loader per test would re-check the standard library
// each time.
var sharedLoader *Loader

func loaderFor(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader != nil {
		return sharedLoader
	}
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	sharedLoader = l
	return l
}

// fixture runs the full analyzer set over one testdata package and renders
// the findings as text.
func fixture(t *testing.T, l *Loader, dir string) string {
	t.Helper()
	ds, err := l.Lint([]string{filepath.Join("testdata", "src", dir)}, All())
	if err != nil {
		t.Fatalf("lint %s: %v", dir, err)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFixtures golden-tests each analyzer against one positive (findings
// expected, compared byte-for-byte against golden.txt) and one negative
// (must be silent) fixture, plus the waiver-comment and malformed-waiver
// packages.
func TestFixtures(t *testing.T) {
	l := loaderFor(t)
	positives := []string{
		"simclock/bad",
		"seededrand/bad",
		"spanend/bad",
		"poolpair/bad",
		"ctxfirst/bad",
		"nogo/bad",
		"noblock/bad",
		"noblock/readiness",
		"maporder/bad",
		"lockorder/bad",
		"hotalloc/bad",
		"waiverunused/bad",
		"waiver/malformed",
	}
	for _, dir := range positives {
		t.Run(dir, func(t *testing.T) {
			got := fixture(t, l, dir)
			if got == "" {
				t.Fatalf("%s produced no findings; positive fixtures must diagnose", dir)
			}
			golden := filepath.Join("testdata", "src", dir, "golden.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings differ from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
	negatives := []string{
		"simclock/good",
		"seededrand/good",
		"spanend/good",
		"poolpair/good",
		"ctxfirst/good",
		"nogo/good",
		"noblock/good",
		"maporder/good",
		"lockorder/good",
		"hotalloc/good",
		"waiverunused/good",
		"waiver/ok",
	}
	for _, dir := range negatives {
		t.Run(dir, func(t *testing.T) {
			if got := fixture(t, l, dir); got != "" {
				t.Errorf("%s must be clean, got:\n%s", dir, got)
			}
		})
	}
}

// TestFixtureDeterminism asserts the property the tool promises its own
// output: two scans of the same package render byte-identically.
func TestFixtureDeterminism(t *testing.T) {
	l := loaderFor(t)
	a := fixture(t, l, "simclock/bad")
	b := fixture(t, l, "simclock/bad")
	if a != b {
		t.Errorf("output not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestSelect covers the -only/-skip flag semantics, including the
// unknown-name usage error.
func TestSelect(t *testing.T) {
	all, err := Select("", "")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\",\"\") = %d analyzers, err %v", len(all), err)
	}
	only, err := Select("simclock,spanend", "")
	if err != nil || len(only) != 2 {
		t.Fatalf("Select(only) = %v, err %v", names(only), err)
	}
	skipped, err := Select("", "simclock")
	if err != nil || len(skipped) != len(All())-1 {
		t.Fatalf("Select(skip) = %v, err %v", names(skipped), err)
	}
	for _, a := range skipped {
		if a.Name == "simclock" {
			t.Error("skip did not drop simclock")
		}
	}
	if _, err := Select("nosuch", ""); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Errorf("unknown -only name must be a usage error, got %v", err)
	}
	if _, err := Select("", "nosuch"); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Errorf("unknown -skip error must list known analyzers, got %v", err)
	}
}

func names(as []*Analyzer) []string {
	var ns []string
	for _, a := range as {
		ns = append(ns, a.Name)
	}
	return ns
}

// TestWriteJSON pins the JSON shape: an indented array, empty array (not
// null) on a clean run.
func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("empty findings must marshal to [], got %q", buf.String())
	}
	buf.Reset()
	ds := []Diagnostic{{File: "a.go", Line: 3, Col: 7, Analyzer: "simclock", Message: "m"}}
	if err := WriteJSON(&buf, ds); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"file": "a.go"`, `"line": 3`, `"col": 7`, `"analyzer": "simclock"`, `"message": "m"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON output missing %s:\n%s", want, buf.String())
		}
	}
}

// TestSortOrder pins the deterministic ordering contract.
func TestSortOrder(t *testing.T) {
	ds := []Diagnostic{
		{File: "b.go", Line: 1, Col: 1, Analyzer: "z", Message: "m"},
		{File: "a.go", Line: 9, Col: 1, Analyzer: "z", Message: "m"},
		{File: "a.go", Line: 2, Col: 5, Analyzer: "z", Message: "m"},
		{File: "a.go", Line: 2, Col: 5, Analyzer: "a", Message: "m"},
		{File: "a.go", Line: 2, Col: 1, Analyzer: "z", Message: "m"},
	}
	Sort(ds)
	want := []string{
		"a.go:2:1: z: m",
		"a.go:2:5: a: m",
		"a.go:2:5: z: m",
		"a.go:9:1: z: m",
		"b.go:1:1: z: m",
	}
	for i, d := range ds {
		if d.String() != want[i] {
			t.Errorf("order[%d] = %q, want %q", i, d.String(), want[i])
		}
	}
}

// TestExpandSkipsTestdata checks the ./... walker excludes testdata the way
// the go tool does, while explicit paths still reach fixtures.
func TestExpandSkipsTestdata(t *testing.T) {
	dirs, err := Expand(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("./... walked into %s", d)
		}
	}
	explicit, err := Expand(".", []string{"testdata/src/simclock/bad"})
	if err != nil || len(explicit) != 1 {
		t.Fatalf("explicit fixture path: dirs %v, err %v", explicit, err)
	}
}

// TestRepositoryClean is the gate's own gate: the tree this test ships in
// must be free of findings, so any regression fails tier-1 tests too, not
// just make check.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	l := loaderFor(t)
	dirs, err := Expand(l.Root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := l.Lint(dirs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		t.Errorf("%s", d)
	}
}
