package coursenav_test

// End-to-end resilient ingestion: the corrupted registrar corpus —
// three injected defects (unparseable prerequisite prose, a dangling
// prerequisite reference, a malformed record) plus two corrupt schedule
// lines — must import leniently with exactly the defective records
// quarantined and per-line diagnostics, while strict mode fails fast on
// the same bytes.

import (
	"context"
	"os"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/integrity"
	"repro/internal/registrar"
)

const (
	corruptCatalog  = "internal/registrar/testdata/corrupt/catalog.txt"
	corruptSchedule = "internal/registrar/testdata/corrupt/schedule.txt"
)

func openFile(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestLenientImportQuarantinesExactlyTheDefects(t *testing.T) {
	nav, rep, err := coursenav.NewFromRegistrarDumpLenient(
		openFile(t, corruptCatalog), openFile(t, corruptSchedule), "Fall 2011", "Fall 2013")
	if err != nil {
		t.Fatal(err)
	}

	// Exactly the three defective course records are quarantined: the
	// unparseable prerequisite (MATH 10A), the bad workload (HIST 5A) and
	// the dangling prerequisite reference (PHYS 20B, dropped by the
	// integrity gate rather than the parser).
	quarantined := append([]string(nil), rep.Quarantined...)
	sort.Strings(quarantined)
	if got, want := strings.Join(quarantined, ","), "HIST 5A,MATH 10A,PHYS 20B"; got != want {
		t.Errorf("quarantined = %s, want %s", got, want)
	}
	if nav.NumCourses() != 3 {
		t.Errorf("catalog size = %d, want 3 survivors", nav.NumCourses())
	}
	for _, id := range []string{"COSI 11A", "COSI 21A", "COSI 31A"} {
		if _, ok := nav.Course(id); !ok {
			t.Errorf("survivor %s missing from catalog", id)
		}
	}

	// Per-line diagnostics name each defect's source line.
	wantLines := map[int]string{
		18: "prereq",   // MATH 10A: grammar rejects the prerequisite prose
		31: "workload", // HIST 5A: unparseable workload
		3:  "schedule", // schedule line missing its separator
		4:  "schedule", // schedule line with an unparseable term
	}
	for line, field := range wantLines {
		found := false
		for _, d := range rep.Diagnostics {
			if d.Line == line && d.Field == field && d.Severity == registrar.SevError {
				found = true
			}
		}
		if !found {
			t.Errorf("no error diagnostic at line %d field %s in %v", line, field, rep.Diagnostics)
		}
	}
	// The dangling reference is attributed to its course by the
	// integrity-gate diagnostic, and the orphaned schedule record for the
	// quarantined MATH 10A surfaces as a merge warning.
	var sawDangling, sawMergeWarning bool
	for _, d := range rep.Diagnostics {
		if d.Field == "integrity" && d.Course == "PHYS 20B" && d.Severity == registrar.SevError {
			sawDangling = true
		}
		if d.Field == "merge" && d.Course == "MATH 10A" && d.Severity == registrar.SevWarning {
			sawMergeWarning = true
		}
	}
	if !sawDangling {
		t.Errorf("no integrity diagnostic for PHYS 20B in %v", rep.Diagnostics)
	}
	if !sawMergeWarning {
		t.Errorf("no merge warning for MATH 10A's orphaned schedule record in %v", rep.Diagnostics)
	}

	// The surviving catalog passes the integrity gate (the overlayed
	// schedule leaves COSI 31A's prerequisite chain tight, which is an
	// advisory warning, not an error).
	if !rep.Integrity.OK() {
		t.Errorf("surviving catalog fails integrity: %s", rep.Integrity.Summary())
	}
	foundInfeasible := false
	for _, is := range rep.Integrity.Issues {
		if is.Code == integrity.CodeScheduleInfeasible && is.Course == "COSI 31A" {
			foundInfeasible = true
		}
	}
	if !foundInfeasible {
		t.Errorf("expected schedule-infeasible advisory for COSI 31A, got %v", rep.Integrity.Issues)
	}

	// The survivors serve real explorations.
	g, err := nav.GoalCourses("COSI 21A")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := nav.Count(context.Background(), coursenav.Query{Start: "Fall 2012", End: "Fall 2013", MaxPerTerm: 2, Goal: g})
	if err != nil {
		t.Fatal(err)
	}
	if sum.GoalPaths == 0 {
		t.Error("no goal paths through the surviving catalog")
	}
}

func TestStrictImportFailsFastOnCorpus(t *testing.T) {
	_, err := coursenav.NewFromRegistrarDump(
		openFile(t, corruptCatalog), openFile(t, corruptSchedule), "Fall 2011", "Fall 2013")
	if err == nil {
		t.Fatal("strict import accepted the corrupted corpus")
	}
	if !strings.Contains(err.Error(), "MATH 10A") {
		t.Errorf("strict error %q does not name the first defect", err)
	}
}

// TestLenientImportAllQuarantined: when nothing survives, the import is
// an error, not an empty catalog.
func TestLenientImportAllQuarantined(t *testing.T) {
	dump := strings.NewReader("course: A 1\ndescription: Prerequisite: broken (prose.\nworkload: 1\n")
	_, _, err := coursenav.NewFromRegistrarDumpLenient(dump, nil, "Fall 2011", "Fall 2013")
	if err == nil || !strings.Contains(err.Error(), "no importable course records") {
		t.Errorf("err = %v, want no-importable-records failure", err)
	}
}
