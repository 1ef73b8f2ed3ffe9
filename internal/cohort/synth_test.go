package cohort_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"

	coursenav "repro"
	"repro/internal/cohort"
	"repro/internal/term"
)

// synthShape is the synthesised cohort job's shape: the COSI 21A + 29A
// goal over Fall 2013 → Fall 2015 with at most 3 courses a semester.
func synthShape(tb testing.TB) (*coursenav.Navigator, coursenav.Goal, term.Term, term.Term) {
	tb.Helper()
	nav, _ := coursenav.Brandeis()
	goal, err := nav.GoalCourses("COSI 21A", "COSI 29A")
	if err != nil {
		tb.Fatal(err)
	}
	cal := nav.Catalog().Calendar()
	start, _ := term.Parse(cal, "Fall 2013")
	end, _ := term.Parse(cal, "Fall 2015")
	return nav, goal, start, end
}

// TestSynthesizeGolden pins synthesised cohorts byte for byte: the
// digests of the marshalled members were recorded from the original
// transcript generator, on the embedded catalog (the 600-member job
// shape, several seeds) and on the choice-rich diverse catalog.
func TestSynthesizeGolden(t *testing.T) {
	nav, goal, start, end := synthShape(t)
	diverse := buildDiverseNav(t)
	diverseGoal, err := diverse.GoalExpr("CS 400")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		nav  *coursenav.Navigator
		goal coursenav.Goal
		n    int
		seed int64
		want string
	}{
		{"brandeis/0", nav, goal, 600, 0, "d6f0cc5f9d117e4e02139ee0e6f5792d29f3bc0fbc3da20034cd7b498e6cd614"},
		{"brandeis/1", nav, goal, 600, 1, "c24b4aea990eb9acb874ffd187705b6339a98177b6ac571d64a3f9d36dbaf6f0"},
		{"brandeis/2", nav, goal, 600, 2, "b2520aac7df512ca62d22d7dc18c3f0671cdbecde29698cdd6e338dc64ec769e"},
		{"brandeis/2016", nav, goal, 600, 2016, "888a8c450f93db968fb238182d82856b717f790928641ddbeb042ad546bab965"},
		{"brandeis/2^40-1", nav, goal, 600, 1<<40 - 1, "feaf6b30f6a50d435795702e5d32108b04a1fa023af6bc063fe93bbc10104b57"},
		{"diverse/1", diverse, diverseGoal, 30, 1, "42664f918264b5ec7dc7debcbe22fc573e53049434d3e86f3af42a58b7dcade9"},
		{"diverse/7", diverse, diverseGoal, 30, 7, "c1fc2b00d0f01eaa0ae18cfe94994b819d74bad16178b16819ebadc39801a5bb"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms, err := cohort.Synthesize(tc.nav.Catalog(), tc.goal.Inner(), start, end, 3, tc.n, rand.New(rand.NewSource(tc.seed)))
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(ms)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}

// BenchmarkCohortSynthesize measures member synthesis alone: one
// 600-member cohort of the synthesised job shape per iteration.
func BenchmarkCohortSynthesize(b *testing.B) {
	nav, goal, start, end := synthShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cohort.Synthesize(nav.Catalog(), goal.Inner(), start, end, 3, 600, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}
