package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lfsc/internal/obs"
	"lfsc/internal/rng"
	"lfsc/internal/sim"
	"lfsc/internal/trace"
)

// TestRouterDeterministicAcrossRestarts pins the consistent-hash mapping:
// it is a pure function of (scn, shard count) — two independently built
// rings agree everywhere, OwnerMap agrees with Shard, and a handful of
// golden values freeze the concrete mapping the sharded checkpoint layout
// depends on (a silent ring change would strand every shard file).
func TestRouterDeterministicAcrossRestarts(t *testing.T) {
	a, b := NewRouter(4), NewRouter(4)
	for scn := 0; scn < 2000; scn++ {
		if a.Shard(scn) != b.Shard(scn) {
			t.Fatalf("scn %d: ring A says %d, ring B says %d", scn, a.Shard(scn), b.Shard(scn))
		}
	}
	owner, ownedOf := a.OwnerMap(2000)
	for m, k := range owner {
		if k != a.Shard(m) {
			t.Fatalf("OwnerMap[%d] = %d, Shard = %d", m, k, a.Shard(m))
		}
	}
	seen := 0
	for k, list := range ownedOf {
		prev := -1
		for _, m := range list {
			if m <= prev {
				t.Fatalf("shard %d owned list not ascending: %v", k, list)
			}
			if owner[m] != k {
				t.Fatalf("scn %d in shard %d's list but owned by %d", m, k, owner[m])
			}
			prev = m
			seen++
		}
	}
	if seen != 2000 {
		t.Fatalf("owned lists cover %d SCNs, want 2000", seen)
	}

	golden := map[int]int{0: 0, 1: 1, 2: 1, 3: 0, 7: 0, 29: 0, 99: 1, 500: 2, 999: 3}
	for scn, want := range golden {
		if got := a.Shard(scn); got != want {
			t.Errorf("golden mapping moved: Shard(%d) = %d, want %d", scn, got, want)
		}
	}
}

// TestRouterBalance checks the ring spreads ownership acceptably at the
// SCN counts the repo targets: with 4 shards every count stays within
// [fair/3, 2*fair] of the fair share. (Consistent hashing trades perfect
// balance for relocation stability; 128 vnodes keep the skew modest.)
func TestRouterBalance(t *testing.T) {
	for _, scns := range []int{30, 100, 1000} {
		const shards = 4
		_, ownedOf := NewRouter(shards).OwnerMap(scns)
		fair := float64(scns) / shards
		for k, list := range ownedOf {
			n := float64(len(list))
			if n < fair/3 || n > 2*fair {
				t.Errorf("scns=%d: shard %d owns %d SCNs, outside [%.1f, %.1f]",
					scns, k, len(list), fair/3, 2*fair)
			}
		}
	}
}

// shardPoolFor returns the lockstep transport matching the daemon's shard
// count: the plain client at 1, the shard-routing pool otherwise.
func shardPoolFor(srv *Server, shards int) Conn {
	if shards <= 1 {
		return NewClient(srv.Addr())
	}
	return NewShardPool(srv.Addr(), shards)
}

// runLockstep boots a daemon with the given shard count, replays slots
// [0, T) over real HTTP through the matching transport, stops the engine,
// and returns (daemon cum reward, client cum reward).
func runLockstep(t *testing.T, sc ReplayScenario, shards int) (daemon, client float64) {
	t.Helper()
	eng, srv, _ := bootDaemon(t, sc, func(c *Config) { c.Shards = shards })
	defer srv.Close()
	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rep.Run(shardPoolFor(srv, shards), 0, sc.T, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Stop()
	if st.ShedSlots != 0 {
		t.Fatalf("shards=%d: lockstep replay shed %d slots", shards, st.ShedSlots)
	}
	if eng.Slot() != sc.T {
		t.Fatalf("shards=%d: daemon served %d slots, want %d", shards, eng.Slot(), sc.T)
	}
	return eng.CumReward(), rep.CumReward()
}

// TestShardedLockstepThreeWayIdentity is the sharded extension of the
// Workers=1-vs-N determinism contract from the core layer: a Shards=4
// daemon (two of whose shards own no SCN at this scale), a Shards=1
// daemon, and an offline sim.Run of the same scenario all earn the
// hex-float-identical cumulative reward, on the daemon side and the
// client side.
func TestShardedLockstepThreeWayIdentity(t *testing.T) {
	const T, seed = 250, 42
	sc := testScenario(T, seed)

	simSc := &sim.Scenario{
		Cfg: sim.Config{T: T, Capacity: sc.Capacity, Alpha: sc.Alpha, Beta: sc.Beta, H: sc.H},
		NewGenerator: func(r *rng.Stream) (trace.Generator, error) {
			return trace.NewSynthetic(sc.Synthetic, r)
		},
		EnvCfg: sc.EnvCfg,
	}
	series, err := sim.Run(simSc, sim.LFSCFactory(nil), seed)
	if err != nil {
		t.Fatal(err)
	}
	offline := 0.0
	for _, r := range series.Reward {
		offline += r
	}

	for _, shards := range []int{1, 4} {
		daemon, client := runLockstep(t, sc, shards)
		if daemon != offline {
			t.Errorf("shards=%d: daemon cum reward %x != offline sim %x (%.10f vs %.10f)",
				shards, daemon, offline, daemon, offline)
		}
		if client != offline {
			t.Errorf("shards=%d: client cum reward %x != offline sim %x", shards, client, offline)
		}
	}
}

// TestServeSmokeShards is the sharded kill-and-resume check behind `make
// serve-smoke-shards`: a Shards=4 daemon serves 200 slots with periodic
// sharded checkpoints, dies hard at slot 120, a fresh Shards=4 daemon
// restores the slot-100 generation from the per-shard files + manifest,
// replays the rest, and must land bit-identically on an uninterrupted
// sharded run. Also pins the on-disk layout: a manifest at the checkpoint
// path, per-shard generation files beside it, and the superseded
// generation garbage-collected.
func TestServeSmokeShards(t *testing.T) {
	const T, seed, every, shards = 200, 7, 100, 4
	sc := testScenario(T, seed)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "lfscd.ckpt")
	mutate := func(c *Config) {
		c.Shards = shards
		c.CheckpointPath = ckpt
		c.CheckpointEvery = every
	}

	// Run A: serve 120 slots, then die without checkpointing.
	engA, srvA, _ := bootDaemon(t, sc, mutate)
	repA, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repA.Run(shardPoolFor(srvA, shards), 0, 120, nil); err != nil {
		t.Fatal(err)
	}
	engA.Abort() // kill: slots 100..119 die with the process
	srvA.Close()

	// The slot-100 generation must be fully on disk: manifest + one file
	// per non-empty shard (the 4-SCN scenario leaves two shards empty).
	var man checkpointManifest
	buf, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no manifest after kill: %v", err)
	}
	if err := json.Unmarshal(buf, &man); err != nil {
		t.Fatal(err)
	}
	if man.Shards != shards || man.Slot != every {
		t.Fatalf("manifest = %+v, want shards %d at slot %d", man, shards, every)
	}
	for k, owned := range func() [][]int { _, o := NewRouter(shards).OwnerMap(4); return o }() {
		_, statErr := os.Stat(shardFilePath(ckpt, man.Generation, k))
		if len(owned) > 0 && statErr != nil {
			t.Fatalf("shard %d file missing: %v", k, statErr)
		}
		if len(owned) == 0 && statErr == nil {
			t.Fatalf("empty shard %d wrote a file", k)
		}
	}

	// Run B: boot fresh, restore the sharded checkpoint, replay the rest.
	engB, srvB, _, restored := resumeDaemon(t, sc, ckpt, mutate)
	defer srvB.Close()
	if !restored {
		t.Fatal("no checkpoint found after kill")
	}
	if engB.Slot() != every {
		t.Fatalf("restored at slot %d, want %d", engB.Slot(), every)
	}
	repB, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repB.Run(shardPoolFor(srvB, shards), engB.Slot(), T, nil); err != nil {
		t.Fatal(err)
	}
	engB.Stop()

	// Run B's graceful stop wrote the next generation; the restored one
	// must be garbage-collected.
	if _, err := os.Stat(shardFilePath(ckpt, man.Generation, 0)); err == nil {
		t.Errorf("superseded generation %d not garbage-collected", man.Generation)
	}

	// Run C: the uninterrupted sharded control.
	engC, srvC, _ := bootDaemon(t, sc, func(c *Config) { c.Shards = shards })
	defer srvC.Close()
	repC, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repC.Run(shardPoolFor(srvC, shards), 0, T, nil); err != nil {
		t.Fatal(err)
	}
	engC.Stop()

	got, want := engB.CumReward(), engC.CumReward()
	if got != want {
		t.Fatalf("sharded kill-and-resume diverged: resumed %x (%.12f) vs uninterrupted %x (%.12f)",
			got, got, want, want)
	}
	if engB.Slot() != engC.Slot() {
		t.Fatalf("slot counters diverged: %d vs %d", engB.Slot(), engC.Slot())
	}
}

// TestShardedCheckpointCompatAndMismatch covers the cross-layout restore
// matrix: a pre-sharding single-file checkpoint restores into a sharded
// daemon and continues bit-identically (the upgrade path), while a
// manifest is rejected by a different shard count.
func TestShardedCheckpointCompatAndMismatch(t *testing.T) {
	const T, seed = 160, 13
	sc := testScenario(T, seed)
	dir := t.TempDir()
	sharded := filepath.Join(dir, "sharded.ckpt")

	// The legacy single-file checkpoint is a committed fixture: written
	// by the pre-sharding engine for this scenario at slot 80 (graceful
	// stop after a lockstep replay of slots 0..79), before the engine
	// stopped writing that layout. Next to it, a manifest at the same
	// slot from a Shards=4 daemon.
	legacy := filepath.Join("testdata", "legacy_slot80.ckpt")
	engA, srvA, _ := bootDaemon(t, sc, func(c *Config) {
		c.Shards = 4
		c.CheckpointPath = sharded
	})
	repA, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repA.Run(shardPoolFor(srvA, 4), 0, 80, nil); err != nil {
		t.Fatal(err)
	}
	engA.Stop()
	srvA.Close()

	// Upgrade path: the legacy document restores into a Shards=4 daemon,
	// which then finishes the run bit-identically to an uninterrupted
	// sharded daemon.
	engB, srvB, _, restored := resumeDaemon(t, sc, legacy, func(c *Config) { c.Shards = 4 })
	defer srvB.Close()
	if !restored {
		t.Fatal("legacy checkpoint not found")
	}
	if engB.Slot() != 80 {
		t.Fatalf("legacy restore at slot %d, want 80", engB.Slot())
	}
	repB, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repB.Run(shardPoolFor(srvB, 4), 80, T, nil); err != nil {
		t.Fatal(err)
	}
	engB.Stop()

	engC, srvC, _ := bootDaemon(t, sc, func(c *Config) { c.Shards = 4 })
	defer srvC.Close()
	repC, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repC.Run(shardPoolFor(srvC, 4), 0, T, nil); err != nil {
		t.Fatal(err)
	}
	engC.Stop()
	if engB.CumReward() != engC.CumReward() {
		t.Fatalf("legacy-into-sharded resume diverged: %x vs %x", engB.CumReward(), engC.CumReward())
	}

	// Mismatch paths: a Shards=4 manifest into one shard and into two.
	for _, bad := range []int{1, 2} {
		eng := buildDaemon(t, sc, func(c *Config) { c.Shards = bad })
		if err := eng.Restore(sharded); err == nil {
			t.Errorf("sharded (4) checkpoint restored into shards=%d engine", bad)
		}
	}

	// A truncated generation (missing shard file) must fail, not
	// half-restore.
	var man checkpointManifest
	buf, err := os.ReadFile(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &man); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(shardFilePath(sharded, man.Generation, 0)); err != nil {
		t.Fatal(err)
	}
	eng := buildDaemon(t, sc, func(c *Config) { c.Shards = 4 })
	if err := eng.Restore(sharded); err == nil {
		t.Error("manifest with a missing shard file restored")
	}
}

// TestShardedStatusAndSnapshots drives a few sharded slots and checks the
// observability surfaces: /lfsc/status carries a routing line per shard,
// and sampled policy snapshots stamp the consistent-hash owner map.
func TestShardedStatusAndSnapshots(t *testing.T) {
	const T, seed, shards = 30, 21, 4
	sc := testScenario(T, seed)
	ring := obs.NewSnapshotRing(4)
	eng, srv, _ := bootDaemon(t, sc, func(c *Config) {
		c.Shards = shards
		c.SnapshotEvery = 10
		c.SnapshotSink = ring
	})
	defer srv.Close()
	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Run(shardPoolFor(srv, shards), 0, T, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/lfsc/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	status := string(body)
	for k := 0; k < shards; k++ {
		if !strings.Contains(status, fmt.Sprintf("shard %d:", k)) {
			t.Fatalf("/lfsc/status missing shard %d line:\n%s", k, status)
		}
	}
	eng.Stop()

	snaps := ring.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("no snapshots sampled")
	}
	last := snaps[len(snaps)-1]
	if len(last.Owner) != 4 {
		t.Fatalf("sharded snapshot owner map has %d entries, want 4", len(last.Owner))
	}
	router := NewRouter(shards)
	for m, k := range last.Owner {
		if k != router.Shard(m) {
			t.Fatalf("snapshot owner[%d] = %d, router says %d", m, k, router.Shard(m))
		}
	}
}

// BenchmarkShardedEngineSlot mirrors BenchmarkEngineSlot at Shards=4 so
// the sharded slot path shows up in `go test -bench` sweeps.
func BenchmarkShardedEngineSlot(b *testing.B) {
	sc := testScenario(1<<30, 9)
	cfg, err := sc.EngineConfig()
	if err != nil {
		b.Fatal(err)
	}
	cfg.ReportWait = 5 * time.Second
	cfg.Shards = 4
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rep, err := NewReplayer(sc)
	if err != nil {
		b.Fatal(err)
	}
	var reports []TaskReport
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.env.Advance(i)
		rep.gen.NextInto(i, &rep.slotBuf)
		rep.buildSpecs()
		resp, err := eng.Submit(&SubmitRequest{Tasks: rep.specs, Close: true})
		if err != nil {
			b.Fatal(err)
		}
		reports = reports[:0]
		for idx, m := range resp.Assigned {
			if m >= 0 {
				reports = append(reports, TaskReport{Task: idx, U: 0.5, V: 1, Q: 1.5})
			}
		}
		if len(reports) > 0 {
			if _, err := eng.Report(&ReportRequest{Slot: resp.Slot, Reports: reports}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if eng.Slot() != b.N {
		b.Fatalf("served %d slots, want %d", eng.Slot(), b.N)
	}
}
