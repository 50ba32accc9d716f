package runtime

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// sharedProgram is an overlapping union inside the audit fragment.
const sharedProgram = `
rel U(x, y) := { 0 <= x <= 2, 0 <= y <= 1 } | { 1 <= x <= 3, 0 <= y <= 2 };
`

// sharedExec prepares U on a fresh runtime.
func sharedExec(t *testing.T) (*Runtime, *Exec) {
	t.Helper()
	rt := NewWithSink(Config{PoolSize: 4, CacheSize: 8}, nil)
	t.Cleanup(rt.Close)
	entry, _, err := rt.Registry().Register("shared", sharedProgram)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := entry.Plan("U")
	if err != nil {
		t.Fatal(err)
	}
	x, err := rt.Exec(entry, cp, testOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt, x
}

// sharedRun is everything one pass over the prepared union produces.
type sharedRun struct {
	draws  [][]linalg.Vector
	volume float64
	audits [][]obs.AuditEvent
}

const (
	sharedDraws  = 3
	sharedAudits = 2
)

// TestSharedGeometryConcurrentBinds pins the ownership rule the walk
// relies on: a prepared body is shared and immutable, and every mutable
// buffer belongs to one walker. One prepared union is bound at once by
// 4-worker draws, a volume estimate and auditor rounds; each output must
// equal, bit for bit, the same call made serially on a runtime of its
// own. Run it under -race to check that no walker writes shared memory.
func TestSharedGeometryConcurrentBinds(t *testing.T) {
	ctx := context.Background()
	run := func(concurrent bool) sharedRun {
		rt, x := sharedExec(t)
		out := sharedRun{draws: make([][]linalg.Vector, sharedDraws), audits: make([][]obs.AuditEvent, sharedAudits)}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var errs []error
		fail := func(err error) {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
		spawn := func(f func()) {
			if !concurrent {
				f()
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				f()
			}()
		}
		for i := range out.draws {
			spawn(func() {
				pts, _, err := x.SampleN(ctx, 64, 4, uint64(i)+1)
				if err != nil {
					fail(err)
				}
				out.draws[i] = pts
			})
		}
		spawn(func() {
			seed := uint64(99)
			v, err := x.Volume(ctx, &seed)
			if err != nil {
				fail(err)
			}
			out.volume = v
		})
		spawn(func() {
			// Audit rounds are seeded by their round number, so they run
			// in order within this goroutine.
			for i := range out.audits {
				evs, err := rt.Auditor().RunOnce(ctx)
				if err != nil {
					fail(err)
				}
				out.audits[i] = evs
			}
		})
		wg.Wait()
		for _, err := range errs {
			t.Fatal(err)
		}
		return out
	}
	serial := run(false)
	conc := run(true)
	for i := range serial.draws {
		if len(conc.draws[i]) != len(serial.draws[i]) {
			t.Fatalf("draw %d: %d points concurrently, %d serially", i, len(conc.draws[i]), len(serial.draws[i]))
		}
		for j, p := range serial.draws[i] {
			for k, v := range p {
				if math.Float64bits(conc.draws[i][j][k]) != math.Float64bits(v) {
					t.Fatalf("draw %d point %d: %v concurrently, %v serially", i, j, conc.draws[i][j], p)
				}
			}
		}
	}
	if math.Float64bits(conc.volume) != math.Float64bits(serial.volume) {
		t.Errorf("volume %v concurrently, %v serially", conc.volume, serial.volume)
	}
	for i := range serial.audits {
		if len(serial.audits[i]) == 0 {
			t.Fatalf("audit round %d emitted no events", i)
		}
		if !reflect.DeepEqual(conc.audits[i], serial.audits[i]) {
			t.Errorf("audit round %d:\n concurrent %+v\n serial     %+v", i, conc.audits[i], serial.audits[i])
		}
	}
}

// TestConcurrentPreparationsShareFanout prepares four relations at once
// on one runtime, whose fan-out their tuples and volume phases all
// compete for, and requires each prepared geometry to equal a
// sequential Prepare of the same relation and seed bit for bit. Run it
// under -race.
func TestConcurrentPreparationsShareFanout(t *testing.T) {
	const program = `
rel A(x, y) := { 0 <= x <= 2, 0 <= y <= 1 } | { 1 <= x <= 3, 0 <= y <= 2 };
rel B(x, y, z) := { x >= 0, y >= 0, z >= 0, x + y + z <= 1 } | { 0 <= x <= 1, 0 <= y <= 1, 1 <= z <= 2 };
rel C(x, y) := { x >= 0, y >= 0, x + 2*y <= 4 };
rel D(x, y, z) := { -1 <= x <= 1, -1 <= y <= 1, -1 <= z <= 1, x + y + z <= 1 };
`
	opts := testOptions()
	opts.MaxPhaseSamples = 200
	rt := NewWithSink(Config{PoolSize: 2, CacheSize: 8}, nil)
	t.Cleanup(rt.Close)
	entry, _, err := rt.Registry().Register("fan", program)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"A", "B", "C", "D"}
	got := make([]*Prepared, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, _, errs[i] = rt.PreparedFor(entry, name, "", opts)
		}()
	}
	wg.Wait()
	for i, name := range names {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		cp, err := entry.Plan(name)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := cp.Relation("derived")
		if err != nil {
			t.Fatal(err)
		}
		want, err := Prepare(rel, PrepSeedFor(PlanKey(entry.ID, cp.Key, opts.CacheKey())), opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		gv, wv := got[i].MemberVolumes(), want.MemberVolumes()
		for j := range wv {
			if math.Float64bits(gv[j]) != math.Float64bits(wv[j]) {
				t.Errorf("%s tuple %d: volume %v on the runtime, %v sequentially", name, j, gv[j], wv[j])
			}
		}
		ga, _ := got[i].VolumeAccuracy()
		wa, _ := want.VolumeAccuracy()
		if ga != wa {
			t.Errorf("%s: ledger %+v on the runtime, %+v sequentially", name, ga, wa)
		}
	}
}
