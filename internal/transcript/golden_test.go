package transcript

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/brandeis"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/term"
)

// wideCatalog has 80 prerequisite-free courses, so the first semester
// has more than 64 options. Goal courses 2 and 66 are offered only in
// that semester, so a first selection missing either fails and the walk
// backtracks into later candidates. Courses 2 and 66 (3 and 67) are
// congruent mod 64: distinct selections such as {W02, W17} and
// {W66, W17} share a 64-bit fingerprint, and dropping either as a
// duplicate changes which candidates are tried.
func wideCatalog(t *testing.T) (*catalog.Catalog, degree.Goal) {
	t.Helper()
	b := catalog.NewBuilder(term.TwoSeason)
	for i := 0; i < 80; i++ {
		terms := []term.Term{f11, s12, f12}
		if i == 2 || i == 66 {
			terms = terms[:1]
		}
		b.Add(catalog.Course{ID: fmt.Sprintf("W%02d", i), Offered: terms})
	}
	cat, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	goal, err := degree.NewCourseSet(cat, "W02", "W03", "W17", "W66", "W67", "W79")
	if err != nil {
		t.Fatal(err)
	}
	return cat, goal
}

// TestGenerateGolden pins the seeding contract across implementations:
// the digests of Write's output were recorded from the original
// generator (Rand.Perm, a stable sort, string-keyed dedupe), so any
// change to the draw order, the relevant-first partition or the dedupe
// shows up here.
func TestGenerateGolden(t *testing.T) {
	cat := brandeis.Catalog()
	major, err := brandeis.Major(cat)
	if err != nil {
		t.Fatal(err)
	}
	wide, wideGoal := wideCatalog(t)
	cases := []struct {
		name       string
		cat        *catalog.Catalog
		goal       degree.Goal
		start, end term.Term
		m, n       int
		seed       int64
		want       string
	}{
		// The §5.2 configuration: 83 transcripts, Fall '12 → Fall '15.
		{"section5.2", cat, major, brandeis.StartForSemesters(6), brandeis.EndTerm(), brandeis.MaxPerTerm, 83, 2016,
			"3f77e7dae12b067514f16fc137a170d35035bc34d6e5abc41d489fc51ef0fbf7"},
		{"wide/seed1", wide, wideGoal, f11, f12, 4, 20, 1,
			"d9071bb0cf53c9486a6424833aa0e34dadbab9aa6a7970202dc691d7e1a18899"},
		{"wide/seed9", wide, wideGoal, f11, f12, 4, 20, 9,
			"dc57d599dc5d31f7feb9f6ea32c5d8cd9e16ce8209216c2bd98cf951250d2889"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trs, err := Generate(tc.cat, tc.goal, tc.start, tc.end, tc.m, tc.n, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Write(&buf, trs); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}

// TestPermReplaysRandPerm checks the walker's in-place permutation
// against Rand.Perm: equal seeds give equal permutations and leave the
// two sources in equal states.
func TestPermReplaysRandPerm(t *testing.T) {
	for n := 0; n <= 80; n++ {
		ref := rand.New(rand.NewSource(int64(n)))
		w := &walker{rng: rand.New(rand.NewSource(int64(n)))}
		for round := 0; round < 3; round++ {
			want := ref.Perm(n)
			if got := w.perm(n); !slices.Equal(got, want) {
				t.Fatalf("n=%d round %d: perm %v, want %v", n, round, got, want)
			}
		}
		if a, b := ref.Int63(), w.rng.Int63(); a != b {
			t.Fatalf("n=%d: sources diverged after perm (%d vs %d)", n, a, b)
		}
	}
}
