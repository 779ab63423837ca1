package jobs

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/selfishmining"
)

// fastReplicaConfig is the shared-store timing used by the in-process
// failover tests: everything is sped up so the poll/heartbeat machinery
// turns over many times within a test.
func fastReplicaConfig(store LeaseStore, id string) Config {
	return Config{
		Store: store, ReplicaID: id, Workers: 1,
		LeaseTTL:     500 * time.Millisecond,
		Heartbeat:    100 * time.Millisecond,
		PollInterval: 50 * time.Millisecond,
	}
}

func newReplica(t *testing.T, dir, id string) (*Manager, *selfishmining.Service) {
	t.Helper()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := selfishmining.NewService(selfishmining.ServiceConfig{})
	m, err := New(svc, fastReplicaConfig(store, id))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Close(ctx)
	})
	return m, svc
}

// TestTwoReplicasShareQueue runs two replicas over one shared directory:
// jobs submitted on one replica are claimed exactly once across the
// fleet, and both replicas' views converge on identical results.
func TestTwoReplicasShareQueue(t *testing.T) {
	dir := t.TempDir()
	mA, _ := newReplica(t, dir, "a")
	mB, _ := newReplica(t, dir, "b")

	specs := []AnalyzeSpec{smallSpec, smallSpec, smallSpec, smallSpec}
	specs[1].P, specs[2].P, specs[3].P = 0.25, 0.35, 0.2
	ids := make([]string, len(specs))
	for i := range specs {
		st, err := mA.Submit(Request{Kind: KindAnalyze, Analyze: &specs[i]})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		fromA := waitState(t, mA, id, StateDone)
		// B discovers A's submissions on its next poll; wait for that
		// before asserting on its mirrored view.
		known := time.Now().Add(10 * time.Second)
		for {
			if _, err := mB.Get(id); err == nil {
				break
			} else if time.Now().After(known) {
				t.Fatalf("replica b never discovered job %s: %v", id, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		fromB := waitState(t, mB, id, StateDone) // B mirrors via poll even when A ran it
		equalJobResults(t, fmt.Sprintf("job %d via A", i), reference(t, specs[i]), fromA.Result)
		equalJobResults(t, fmt.Sprintf("job %d via B", i), fromA.Result, fromB.Result)
	}

	// Exactly one claim and one release per job across the fleet: the
	// lease protocol, not luck, keeps replicas from double-running.
	stA, stB := mA.Stats(), mB.Stats()
	if stA.Leases == nil || stB.Leases == nil {
		t.Fatalf("shared-mode stats missing lease counters: %+v / %+v", stA, stB)
	}
	if got := stA.Leases.Acquired + stB.Leases.Acquired; got != uint64(len(specs)) {
		t.Errorf("fleet acquired %d leases for %d jobs", got, len(specs))
	}
	if got := stA.Leases.Released + stB.Leases.Released; got != uint64(len(specs)) {
		t.Errorf("fleet released %d leases for %d jobs", got, len(specs))
	}
	if stA.Replica != "a" || stB.Replica != "b" {
		t.Errorf("stats replica ids = %q, %q", stA.Replica, stB.Replica)
	}

	// Both replicas publish presence; each sees the other.
	deadline := time.Now().Add(5 * time.Second)
	for {
		reps, err := mB.Replicas()
		if err != nil {
			t.Fatal(err)
		}
		if len(reps) == 2 && reps[0].Replica == "a" && reps[1].Replica == "b" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica registry = %+v, want a and b", reps)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepHandoffAcrossReplicas interrupts an adaptive sweep on replica
// A, shuts A down, and resumes the job on a brand-new replica B over the
// same directory: B must adopt A's persisted checkpoint through the
// lease claim, replay it without re-solving, and finish bitwise
// identical to an uninterrupted run — under a strictly higher token.
func TestSweepHandoffAcrossReplicas(t *testing.T) {
	spec := adaptiveSweepSpec()
	dir := t.TempDir()

	storeA, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mA, err := New(selfishmining.NewService(selfishmining.ServiceConfig{}), fastReplicaConfig(storeA, "a"))
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	mA.pointGate = func(id string, done int) {
		if done == len(spec.PGrid)+1 {
			once.Do(func() { mA.Cancel(id) })
		}
	}
	st, err := mA.Submit(Request{Kind: KindSweep, Sweep: &spec})
	if err != nil {
		t.Fatal(err)
	}
	canceled := waitState(t, mA, st.ID, StateCanceled)
	checkpointed := canceled.Progress.PointsDone
	if checkpointed <= len(spec.PGrid) {
		t.Fatalf("canceled after %d points, want > %d (mid-refinement)", checkpointed, len(spec.PGrid))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mA.Close(ctx); err != nil {
		t.Fatal(err)
	}

	storeB, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svcB := selfishmining.NewService(selfishmining.ServiceConfig{})
	mB, err := New(svcB, fastReplicaConfig(storeB, "b"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mB.Close(ctx)
	})
	if _, err := mB.Resume(st.ID); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, mB, st.ID, StateDone)
	got, err := done.SweepResult.Figure()
	if err != nil {
		t.Fatal(err)
	}
	want := referenceSweep(t, spec)
	equalFigures(t, "handed-off adaptive sweep", want, got)

	// The checkpointed points were replayed, not re-solved, on B's cold
	// service (baseline series never touch the solver).
	attackPoints := len(want.X) * len(spec.Configs)
	if solves := int(svcB.Stats().Solves); solves > attackPoints-checkpointed {
		t.Errorf("handed-off run solved %d points, want <= %d (%d attack points, %d checkpointed)",
			solves, attackPoints-checkpointed, attackPoints, checkpointed)
	}
	stB := mB.Stats()
	if stB.Leases == nil || stB.Leases.Acquired < 1 || stB.Leases.Stolen != 0 {
		t.Errorf("clean handoff lease counters = %+v, want >=1 acquired, 0 stolen", stB.Leases)
	}
	// The final snapshot was persisted under B's fencing token, which is
	// strictly above A's spent token.
	rec, ok, err := storeB.Get(st.ID)
	if err != nil || !ok {
		t.Fatalf("final record: %v, %v", ok, err)
	}
	if rec.Owner != "b" || rec.LeaseToken < 2 {
		t.Errorf("final record owned by %q at token %d, want b at token >= 2", rec.Owner, rec.LeaseToken)
	}
}

// TestReplicaFailoverKillMidSweep is the crash test the in-process tests
// cannot be: a real replica process is SIGKILLed while holding a lease
// mid-sweep (its heartbeat dies with it), and a second replica steals
// the lapsed lease, resumes from the persisted checkpoint, and finishes
// bitwise identical to an uninterrupted run.
func TestReplicaFailoverKillMidSweep(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestReplicaCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "JOBS_REPLICA_HELPER=1", "JOBS_REPLICA_DIR="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	// The helper prints its job ID, then HOLDING once the sweep is
	// parked mid-refinement with >= coarse+1 points persisted.
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var jobID string
	holding := false
	timeout := time.After(90 * time.Second)
	for !holding {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("helper replica exited before holding (job %q)", jobID)
			}
			if rest, found := strings.CutPrefix(line, "JOB "); found {
				jobID = rest
			}
			if line == "HOLDING" {
				holding = true
			}
		case <-timeout:
			t.Fatal("helper replica never reached the hold point")
		}
	}
	if jobID == "" {
		t.Fatal("helper replica never printed its job ID")
	}
	// Crash: no cleanup, no release — the lease dies by expiry alone.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	storeB, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svcB := selfishmining.NewService(selfishmining.ServiceConfig{})
	mB, err := New(svcB, Config{
		Store: storeB, ReplicaID: "crash-b", Workers: 1,
		LeaseTTL: time.Second, Heartbeat: 200 * time.Millisecond, PollInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mB.Close(ctx)
	})

	spec := adaptiveSweepSpec()
	done := waitState(t, mB, jobID, StateDone)
	got, err := done.SweepResult.Figure()
	if err != nil {
		t.Fatal(err)
	}
	want := referenceSweep(t, spec)
	equalFigures(t, "stolen adaptive sweep", want, got)

	// The dead replica persisted exactly coarse+1 points before its hold;
	// the thief replays them from the checkpoint instead of re-solving.
	checkpointed := len(spec.PGrid) + 1
	attackPoints := len(want.X) * len(spec.Configs)
	if solves := int(svcB.Stats().Solves); solves > attackPoints-checkpointed {
		t.Errorf("failover run solved %d points, want <= %d (%d attack points, %d checkpointed)",
			solves, attackPoints-checkpointed, attackPoints, checkpointed)
	}
	stB := mB.Stats()
	if stB.Leases == nil || stB.Leases.Stolen < 1 {
		t.Errorf("failover lease counters = %+v, want >= 1 stolen", stB.Leases)
	}
	// The final snapshot landed under the thief's higher fencing token.
	rec, ok, err := storeB.Get(jobID)
	if err != nil || !ok {
		t.Fatalf("final record: %v, %v", ok, err)
	}
	if rec.Owner != "crash-b" || rec.LeaseToken < 2 {
		t.Errorf("final record owned by %q at token %d, want crash-b at token >= 2", rec.Owner, rec.LeaseToken)
	}
	// The dead replica's presence record survives alongside the thief's.
	reps, err := mB.Replicas()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].Replica != "crash-a" || reps[1].Replica != "crash-b" {
		t.Errorf("replica registry = %+v, want crash-a and crash-b", reps)
	}
}

// TestReplicaCrashHelper is the victim process for
// TestReplicaFailoverKillMidSweep; it only runs when re-executed by that
// test with the JOBS_REPLICA_HELPER environment set. It starts an
// adaptive sweep over the shared directory, parks the worker forever
// once the checkpoint holds coarse+1 points (heartbeats keep renewing
// the lease), and waits to be killed.
func TestReplicaCrashHelper(t *testing.T) {
	if os.Getenv("JOBS_REPLICA_HELPER") != "1" {
		t.Skip("helper process for TestReplicaFailoverKillMidSweep")
	}
	dir := os.Getenv("JOBS_REPLICA_DIR")
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := adaptiveSweepSpec()
	hold := make(chan struct{}) // never closed: only SIGKILL ends this process
	m, err := New(selfishmining.NewService(selfishmining.ServiceConfig{}), Config{
		Store: store, ReplicaID: "crash-a", Workers: 1,
		LeaseTTL: time.Second, Heartbeat: 200 * time.Millisecond, PollInterval: 100 * time.Millisecond,
		Gates: &Gates{Point: func(id string, done int) {
			if done == len(spec.PGrid)+1 {
				fmt.Println("HOLDING")
				<-hold
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(Request{Kind: KindSweep, Sweep: &spec})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("JOB %s\n", st.ID)
	<-hold
}

// TestPollKeepsFinishedJobOverStaleRecord: finish marks a job done and
// drops its lease before its final record lands in the store, so a poll
// in that window reads the job's last running snapshot. The mirror must
// keep the finished state — adopting the stale record sent a done job
// back to running, or (with no live lease) queued it to run again — while
// a record from a later resume epoch is still adopted.
func TestPollKeepsFinishedJobOverStaleRecord(t *testing.T) {
	m, _ := newReplica(t, t.TempDir(), "a")
	st, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)

	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[st.ID]
	now := time.Now()
	remote := map[string]Lease{st.ID: {JobID: st.ID, Owner: "b", Token: 99, Expires: now.Add(time.Minute)}}
	for _, leases := range []map[string]Lease{{}, remote} {
		stale := &Record{Status: *m.statusLocked(j)}
		stale.State, stale.FinishedAt, stale.Result = StateRunning, nil, nil
		wake := 0
		m.refreshLocked(j, stale, leases, now, &wake)
		if j.state != StateDone || j.heapIdx >= 0 || wake != 0 {
			t.Fatalf("stale running record (leases %v) turned a done job into %s (queued: %v, wakes: %d)",
				leases, j.state, j.heapIdx >= 0, wake)
		}
	}
	resumed := &Record{Status: *m.statusLocked(j)}
	resumed.State, resumed.FinishedAt, resumed.Result = StateRunning, nil, nil
	resumed.Resumes++
	wake := 0
	m.refreshLocked(j, resumed, remote, now, &wake)
	if j.state != StateRunning || j.remoteOwner != "b" || j.heapIdx >= 0 {
		t.Fatalf("record of a later resume left the job %s (remote owner %q, queued: %v), want running on b",
			j.state, j.remoteOwner, j.heapIdx >= 0)
	}
}
