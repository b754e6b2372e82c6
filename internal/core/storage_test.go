package core_test

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
)

var allVersions = []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine}

// placedShape is a placement with every entry reduced to its ID, so
// placements on two analyses of one program compare with DeepEqual.
type placedShape struct {
	Groups    []groupShape
	Redundant map[int]int    // entry → subsumer
	PosOf     map[int]string // entry → its group's position
}

type groupShape struct {
	ID       int
	Pos      string
	Kind     core.CommKind
	Map      string
	Entries  []int
	Attached []int
	Site     string
	Sources  []string
}

func shapeOf(res *core.Result) placedShape {
	s := placedShape{Redundant: map[int]int{}, PosOf: map[int]string{}}
	for _, g := range res.Groups {
		s.Groups = append(s.Groups, groupShape{
			ID: g.ID, Pos: g.Pos.String(), Kind: g.Kind, Map: g.Map.String(),
			Entries: entryIDs(g.Entries), Attached: entryIDs(g.Attached),
			Site: g.SiteID(), Sources: g.Sources(),
		})
	}
	for id, by := range res.Redundant {
		if by != nil {
			s.Redundant[id] = by.ID
		}
	}
	for id, p := range res.PosOf {
		if p.Block != nil {
			s.PosOf[id] = p.String()
		}
	}
	return s
}

// TestPlacementScratchPerCall: a placement's scratch and slabs are its
// own. Placing orig → nored → comb → comb → orig on one analysis gives,
// each time, exactly what a fresh analysis of the routine places for
// that version — groups, positions, members, attachments, labels,
// Redundant and PosOf.
func TestPlacementScratchPerCall(t *testing.T) {
	for _, pr := range bench.Programs() {
		shared, err := pr.Compile(pr.DefaultN, 25)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine, core.VersionCombine, core.VersionOrig} {
			fresh, err := pr.Compile(pr.DefaultN, 25)
			if err != nil {
				t.Fatal(err)
			}
			got, want := shapeOf(place(t, shared, v)), shapeOf(place(t, fresh, v))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s placement %d (%v) on a reused analysis differs from a fresh one:\n got %+v\nwant %+v", pr.Bench, pr.Routine, i, v, got, want)
			}
		}
	}
}

// TestConcurrentPlacementLabels: eight goroutines place all three
// versions on one shared analysis at once and read every group's site
// label and source list; each sees the sequential answer. Under -race
// this holds that neither the placements nor the labels write anything
// a reader shares.
func TestConcurrentPlacementLabels(t *testing.T) {
	pr, err := bench.ByName("hydflo", "flux")
	if err != nil {
		t.Fatal(err)
	}
	a, err := pr.Compile(pr.DefaultN, 25)
	if err != nil {
		t.Fatal(err)
	}
	var want []placedShape
	for _, v := range allVersions {
		want = append(want, shapeOf(place(t, a, v)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, v := range allVersions {
				res, err := a.Place(core.Options{Version: v})
				if err != nil {
					t.Error(err)
					return
				}
				if got := shapeOf(res); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, %v: concurrent placement differs from the sequential one", g, v)
				}
			}
		}()
	}
	wg.Wait()
}

// eagerSources is the source list as Place used to store it on every
// group: the members' and attachments' statements, "label@line:col",
// deduplicated and sorted.
func eagerSources(g *core.Group) []string {
	seen := map[string]bool{}
	var out []string
	for _, es := range [][]*core.Entry{g.Entries, g.Attached} {
		for _, e := range es {
			for _, u := range e.Uses {
				if u.Stmt == nil || u.Stmt.Assign == nil {
					continue
				}
				s := fmt.Sprintf("%s@%s", u.Stmt.Label(), u.Stmt.Assign.Pos)
				if !seen[s] {
					seen[s] = true
					out = append(out, s)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestLazyLabelsMatchEagerFormat: the labels a group derives on demand
// are the ones Place used to format eagerly, for every group of the six
// Fig. 10(a) routines under the three versions at P = 25.
func TestLazyLabelsMatchEagerFormat(t *testing.T) {
	groups := 0
	for _, pr := range bench.Programs() {
		a, err := pr.Compile(pr.DefaultN, 25)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range allVersions {
			for _, g := range place(t, a, v).Groups {
				groups++
				if want := fmt.Sprintf("%s/g%d@%s/%s", v, g.ID, g.Pos, g.Kind); g.SiteID() != want {
					t.Errorf("%s/%s %v: SiteID %q, eager format %q", pr.Bench, pr.Routine, v, g.SiteID(), want)
				}
				if got, want := g.Sources(), eagerSources(g); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s %v group %d: Sources %q, eager list %q", pr.Bench, pr.Routine, v, g.ID, got, want)
				}
			}
		}
	}
	if groups < 100 {
		t.Errorf("only %d groups checked", groups)
	}
}
