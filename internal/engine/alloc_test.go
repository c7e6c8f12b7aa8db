package engine

import (
	"runtime"
	"testing"

	"repro/internal/value"
)

// TestStageAllocations pins the allocations of a one-insert stage and of a
// one-delete stage of view ← data ⋈ meta over about a thousand rows, keyed
// by the caller as a peer keys them (StageInput.InsKeys, DelKeys). The
// inserted row joins four meta rows, so a second encoding of each derived or
// over-deleted view tuple's key would add four allocations to its stage.
func TestStageAllocations(t *testing.T) {
	e, db := testEnv(t, DefaultOptions(), "ext data(k,v)", "ext meta(k,m)", "int view(v,m)")
	prog, err := e.CompileProgram(mustRules(t, `view@local($v,$m) :- data@local($k,$v), meta@local($k,$m);`))
	if err != nil {
		t.Fatal(err)
	}
	data, meta := db.Get("data", "local"), db.Get("meta", "local")
	const keys, fan = 250, 4
	for i := 0; i < keys*fan; i++ {
		data.Insert(value.Tuple{value.Int(int64(i % keys)), value.Int(int64(i))})
		meta.Insert(value.Tuple{value.Int(int64(i % keys)), value.Int(int64(i))})
	}
	rv := NewRemoteView()
	if res := e.RunStageIncremental(prog, &StageInput{}, rv); res.Derived != keys*fan*fan {
		t.Fatalf("first build derived %d, want %d", res.Derived, keys*fan*fan)
	}
	row := value.Tuple{value.Int(7), value.Int(-1)}
	key := row.Key()
	ins := &StageInput{Ins: map[string][]value.Tuple{"data@local": {row}}, InsKeys: map[string][]string{"data@local": {key}}}
	del := &StageInput{Del: map[string][]value.Tuple{"data@local": {row}}, DelKeys: map[string][]string{"data@local": {key}}}
	insert := func() {
		data.InsertKeyed(row, key)
		if res := e.RunStageIncremental(prog, ins, rv); res.Derived != fan || len(res.Errors) > 0 {
			t.Fatalf("insert stage derived %d (errors %v), want %d", res.Derived, res.Errors, fan)
		}
	}
	remove := func() {
		data.DeleteKeyed(row, key)
		if res := e.RunStageIncremental(prog, del, rv); res.Retracted != fan || len(res.Errors) > 0 {
			t.Fatalf("delete stage retracted %d (errors %v), want %d", res.Retracted, res.Errors, fan)
		}
	}
	insAllocs, delAllocs := stageAllocs(20, insert, remove)
	t.Logf("allocations: %d per insert stage, %d per delete stage", insAllocs, delAllocs)
	const maxIns, maxDel = 65, 79
	if insAllocs > maxIns {
		t.Errorf("an insert stage allocates %d times, want at most %d", insAllocs, maxIns)
	}
	if delAllocs > maxDel {
		t.Errorf("a delete stage allocates %d times, want at most %d", delAllocs, maxDel)
	}
}

// stageAllocs runs ins then del once to warm up, then rounds times more, and
// returns the mean allocations of each, as testing.AllocsPerRun does for one
// function.
func stageAllocs(rounds int, ins, del func()) (insAllocs, delAllocs uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ins()
	del()
	var m0, m1, m2 runtime.MemStats
	for i := 0; i < rounds; i++ {
		runtime.ReadMemStats(&m0)
		ins()
		runtime.ReadMemStats(&m1)
		del()
		runtime.ReadMemStats(&m2)
		insAllocs += m1.Mallocs - m0.Mallocs
		delAllocs += m2.Mallocs - m1.Mallocs
	}
	return insAllocs / uint64(rounds), delAllocs / uint64(rounds)
}
