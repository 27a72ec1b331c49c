package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata expected.txt goldens")

// fixturePkg maps a testdata directory to the synthetic import path that
// places it inside the rule's AppliesTo scope.
type fixturePkg struct {
	dir        string // relative to internal/analysis/testdata
	importPath string
}

type goldenCase struct {
	name  string   // testdata/<name>/expected.txt
	rules []string // rule names to run; nil means the full suite
	pkgs  []fixturePkg
}

var goldenCases = []goldenCase{
	{name: "wallclock", rules: []string{"wallclock"},
		pkgs: []fixturePkg{{"wallclock", "lintfixture/internal/wallclock"}}},
	{name: "seededrand", rules: []string{"seededrand"},
		pkgs: []fixturePkg{{"seededrand", "lintfixture/seededrand"}}},
	{name: "maporder", rules: []string{"maporder"},
		pkgs: []fixturePkg{{"maporder", "lintfixture/internal/maporder"}}},
	{name: "nilrecv", rules: []string{"nilrecv"},
		pkgs: []fixturePkg{{"nilrecv", "lintfixture/internal/obs"}}},
	{name: "droppederr", rules: []string{"droppederr"},
		pkgs: []fixturePkg{
			{"droppederr/core", "lintfixture/internal/core"},
			{"droppederr/store", "lintfixture/internal/store"},
		}},
	{name: "stderrprint", rules: []string{"stderrprint"},
		pkgs: []fixturePkg{{"stderrprint", "lintfixture/internal/stderrprint"}}},
	{name: "lockflow", rules: []string{"lockflow"},
		pkgs: []fixturePkg{{"lockflow", "lintfixture/internal/lockflow"}}},
	{name: "ctcompare", rules: []string{"ctcompare"},
		pkgs: []fixturePkg{{"ctcompare", "lintfixture/internal/ctcompare"}}},
	// The errflow fixture's synthetic path ends in /internal/core so its
	// StateSink interface counts as the durability seed.
	{name: "errflow", rules: []string{"errflow"},
		pkgs: []fixturePkg{{"errflow", "errfixture/internal/core"}}},
	// The directive case runs a real rule so the interplay is visible:
	// unknown rule names and empty reasons are flagged AND fail to
	// suppress the underlying finding.
	{name: "directive", rules: []string{"wallclock"},
		pkgs: []fixturePkg{{"directive", "lintfixture/internal/directive"}}},
	{name: "clean", rules: nil,
		pkgs: []fixturePkg{{"clean", "lintfixture/internal/clean"}}},
}

// One loader is shared across every golden case: the source importer
// type-checks each stdlib package (time, math/rand, fmt, os, sort) once.
var (
	loaderOnce   sync.Once
	sharedLoader *Loader
	loaderErr    error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		sharedLoader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return sharedLoader
}

func ruleByName(t *testing.T, name string) *Rule {
	t.Helper()
	for _, r := range Rules() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no rule named %q", name)
	return nil
}

func runGoldenCase(t *testing.T, tc goldenCase) *Result {
	t.Helper()
	l := fixtureLoader(t)
	var pkgs []*Package
	for _, fp := range tc.pkgs {
		dir := filepath.Join(l.ModuleRoot, "internal", "analysis", "testdata", fp.dir)
		pkg, err := l.LoadDir(dir, fp.importPath)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	rules := Rules()
	if tc.rules != nil {
		rules = nil
		for _, name := range tc.rules {
			rules = append(rules, ruleByName(t, name))
		}
	}
	res, err := RunRules(l, pkgs, rules)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// renderResult is the golden-file shape: unsuppressed findings first,
// then the suppressed audit trail, both in the sorted Result order.
func renderResult(res *Result) string {
	var b strings.Builder
	for _, d := range res.Diagnostics {
		fmt.Fprintln(&b, d.String())
	}
	for _, d := range res.Suppressed {
		fmt.Fprintf(&b, "suppressed: %s [allowed: %s]\n", d.String(), d.Reason)
	}
	if b.Len() == 0 {
		return "clean\n"
	}
	return b.String()
}

// TestGolden runs each rule over its fixture package(s) and compares the
// rendered diagnostics against testdata/<case>/expected.txt. Every
// positive golden expects at least one finding, so disabling a rule (or
// breaking its detection) fails its case. Regenerate with -update.
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			res := runGoldenCase(t, tc)
			if tc.name != "clean" && len(res.Diagnostics)+len(res.Suppressed) == 0 {
				t.Fatalf("fixture produced no findings at all; the %s rule appears disabled", tc.name)
			}
			got := renderResult(res)
			goldenPath := filepath.Join("testdata", tc.name, "expected.txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("diagnostics diverge from %s:\n--- got ---\n%s--- want ---\n%s",
					goldenPath, got, string(want))
			}
		})
	}
}

// TestUnknownRuleSuppression pins the meta-rule contract directly: a
// suppression naming a rule that does not exist is itself a diagnostic,
// and the finding it failed to suppress stays live.
func TestUnknownRuleSuppression(t *testing.T) {
	res := runGoldenCase(t, goldenCase{
		name:  "directive",
		rules: []string{"wallclock"},
		pkgs:  []fixturePkg{{"directive", "lintfixture/internal/directive"}},
	})
	var unknown, emptyReason, live int
	for _, d := range res.Diagnostics {
		switch {
		case d.Rule == MetaRule && strings.Contains(d.Message, "unknown rule"):
			unknown++
		case d.Rule == MetaRule && strings.Contains(d.Message, "no reason"):
			emptyReason++
		case d.Rule == "wallclock":
			live++
		}
	}
	if unknown == 0 {
		t.Errorf("no %q diagnostic for the unknown rule name; got %+v", MetaRule, res.Diagnostics)
	}
	if emptyReason == 0 {
		t.Errorf("no %q diagnostic for the empty reason; got %+v", MetaRule, res.Diagnostics)
	}
	if live < 4 {
		t.Errorf("expected all 4 wallclock findings to stay unsuppressed, got %d", live)
	}
	if len(res.Suppressed) != 0 {
		t.Errorf("broken directives must not suppress anything; got %+v", res.Suppressed)
	}
}

// TestResultJSONRoundTrip pins the -json contract: a Result survives
// marshal/unmarshal bit-identically, including the suppressed audit
// trail and the empty-slice (never null) encoding.
func TestResultJSONRoundTrip(t *testing.T) {
	res := runGoldenCase(t, goldenCase{
		name:  "wallclock",
		rules: []string{"wallclock"},
		pkgs:  []fixturePkg{{"wallclock", "lintfixture/internal/wallclock"}},
	})
	if len(res.Diagnostics) == 0 || len(res.Suppressed) == 0 {
		t.Fatalf("fixture must yield both live and suppressed findings, got %d/%d",
			len(res.Diagnostics), len(res.Suppressed))
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res, back) {
		t.Errorf("round trip diverged:\nbefore: %+v\nafter:  %+v", *res, back)
	}

	clean := &Result{ModulePath: "m", Diagnostics: []Diagnostic{}, Suppressed: []Diagnostic{}}
	data, err = json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "null") {
		t.Errorf("clean result encodes a null slice: %s", data)
	}
}

// TestModuleLintsClean runs the full rule suite over the shipped module —
// what `erasmus-lint ./...` does: zero unsuppressed diagnostics, and every
// suppression carries its reason.
func TestModuleLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint type-checks the full tree")
	}
	res, err := Run(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("unsuppressed: %s", d)
	}
	if res.Packages == 0 {
		t.Fatal("lint loaded no packages")
	}
	for _, d := range res.Suppressed {
		if d.Reason == "" {
			t.Errorf("suppression without a reason at %s", d)
		}
	}
}
