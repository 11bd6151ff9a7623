package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeTask is a controllable resumable task: total steps, optionally
// gated one token at a time, snapshotting its completed count. ran
// counts steps executed by THIS instance, so recovery tests can prove
// restored work was skipped rather than redone.
type fakeTask struct {
	mu    sync.Mutex
	done  int
	total int
	ran   int
	gate  chan struct{}
	fail  bool
}

func (f *fakeTask) Progress() (int, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done, f.total
}

func (f *fakeTask) Snapshot() ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return json.Marshal(map[string]int{"done": f.done})
}

func (f *fakeTask) Restore(b []byte) error {
	var s struct{ Done int }
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	f.mu.Lock()
	f.done = s.Done
	f.mu.Unlock()
	return nil
}

func (f *fakeTask) Run(ctx context.Context, emit func(string, any)) (any, error) {
	for {
		f.mu.Lock()
		d, t := f.done, f.total
		f.mu.Unlock()
		if d >= t {
			break
		}
		if f.gate != nil {
			select {
			case <-f.gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		f.mu.Lock()
		f.done++
		f.ran++
		d = f.done
		f.mu.Unlock()
		emit("progress", map[string]int{"done": d, "total": t})
		if f.fail {
			return nil, errors.New("step exploded")
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return map[string]int{"done": f.done, "ran": f.ran}, nil
}

// waitTerminal polls the job's event log until a terminal event lands.
func waitTerminal(t *testing.T, j *Job) Event {
	t.Helper()
	deadline := time.After(10 * time.Second)
	var seq int64 = -1
	for {
		ch := j.Events.Changed()
		for _, e := range j.Events.After(seq) {
			seq = e.Seq
			if e.Terminal() {
				return e
			}
		}
		select {
		case <-ch:
		case <-deadline:
			t.Fatalf("no terminal event")
		}
	}
}

func singleTaskFactory(tasks map[string]*fakeTask) Factory {
	return func(kind string, spec json.RawMessage) (Task, error) {
		task, ok := tasks[kind]
		if !ok {
			return nil, errors.New("unknown kind " + kind)
		}
		return task, nil
	}
}

func TestRegistryLifecycle(t *testing.T) {
	task := &fakeTask{total: 3}
	r := NewRegistry(RegistryOptions{Factory: singleTaskFactory(map[string]*fakeTask{"fake": task})})
	defer r.Close()

	j, err := r.Create("fake", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if e := waitTerminal(t, j); e.Type != EventSucceeded {
		t.Fatalf("terminal event %q, want succeeded", e.Type)
	}
	st := r.Snapshot(j)
	if st.State != StatusSucceeded || st.Done != 3 || st.Total != 3 {
		t.Fatalf("status = %+v", st)
	}
	var res struct{ Done, Ran int }
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Done != 3 || res.Ran != 3 {
		t.Fatalf("result = %+v", res)
	}
	// Every progress event is retained: seqs 0..2 progress + terminal.
	evs := j.Events.After(-1)
	if len(evs) != 4 {
		t.Fatalf("%d events, want 4", len(evs))
	}
}

func TestRegistryFailedJob(t *testing.T) {
	task := &fakeTask{total: 3, fail: true}
	r := NewRegistry(RegistryOptions{Factory: singleTaskFactory(map[string]*fakeTask{"fake": task})})
	defer r.Close()
	j, err := r.Create("fake", nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := waitTerminal(t, j); e.Type != EventFailed {
		t.Fatalf("terminal event %q, want failed", e.Type)
	}
	st := r.Snapshot(j)
	if st.State != StatusFailed || st.Error != "step exploded" {
		t.Fatalf("status = %+v", st)
	}
}

func TestRegistryDeleteCancelsRunning(t *testing.T) {
	task := &fakeTask{total: 1000, gate: make(chan struct{})}
	r := NewRegistry(RegistryOptions{Factory: singleTaskFactory(map[string]*fakeTask{"fake": task})})
	defer r.Close()
	j, err := r.Create("fake", nil)
	if err != nil {
		t.Fatal(err)
	}
	task.gate <- struct{}{} // let one step through so it is mid-run
	if err := r.Delete(j.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(j.ID); !errors.Is(err, ErrNoJob) {
		t.Fatalf("Get after Delete: err = %v, want ErrNoJob", err)
	}
	if err := r.Delete(j.ID); !errors.Is(err, ErrNoJob) {
		t.Fatalf("second Delete: err = %v, want ErrNoJob", err)
	}
	if e := waitTerminal(t, j); e.Type != EventCancelled {
		t.Fatalf("terminal event %q, want cancelled", e.Type)
	}
}

func TestRegistryCapacity(t *testing.T) {
	blocked := &fakeTask{total: 10, gate: make(chan struct{})}
	r := NewRegistry(RegistryOptions{
		Factory: singleTaskFactory(map[string]*fakeTask{"fake": blocked}),
		MaxJobs: 1,
	})
	defer r.Close()
	if _, err := r.Create("fake", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("fake", nil); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("second create: %v, want ErrRegistryFull", err)
	}
}

func TestRegistryTTLEviction(t *testing.T) {
	mgr, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	task := &fakeTask{total: 1}
	r := NewRegistry(RegistryOptions{
		Factory: singleTaskFactory(map[string]*fakeTask{"fake": task}),
		Manager: mgr,
		TTL:     10 * time.Millisecond,
	})
	defer r.Close()
	j, err := r.Create("fake", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	deadline := time.After(10 * time.Second)
	for {
		if _, err := r.Get(j.ID); err != nil {
			break
		}
		select {
		case <-deadline:
			t.Fatal("finished job never evicted")
		case <-time.After(5 * time.Millisecond):
		}
	}
	names, err := mgr.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("files survived eviction: %v", names)
	}
}

// TestRegistryShutdownRecovery is the re-adoption contract: a registry
// closed mid-run leaves a running job checkpointed on disk; a fresh
// registry over the same directory re-adopts it, restores the completed
// prefix, and finishes having executed only the remaining steps.
func TestRegistryShutdownRecovery(t *testing.T) {
	dir := t.TempDir()
	mgr, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	const total = 10
	first := &fakeTask{total: total, gate: make(chan struct{}, total)}
	r1 := NewRegistry(RegistryOptions{
		Factory:   singleTaskFactory(map[string]*fakeTask{"fake": first}),
		Manager:   mgr,
		SaveEvery: time.Hour, // only the shutdown flush persists
	})
	j1, err := r1.Create("fake", json.RawMessage(`{"n":10}`))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		first.gate <- struct{}{}
	}
	// Wait until the four gated steps have actually executed.
	deadline := time.After(10 * time.Second)
	for {
		if d, _ := first.Progress(); d == 4 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("steps never ran")
		case <-time.After(time.Millisecond):
		}
	}
	seqBefore := j1.Events.NextSeq()
	r1.Close() // cancels the run and flushes the final checkpoint

	second := &fakeTask{total: total}
	mgr2, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry(RegistryOptions{
		Factory: singleTaskFactory(map[string]*fakeTask{"fake": second}),
		Manager: mgr2,
	})
	defer r2.Close()
	resumed, err := r2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d jobs, want 1", resumed)
	}
	j2, err := r2.Get(j1.ID)
	if err != nil {
		t.Fatal("re-adopted job not resolvable under its original id")
	}
	if e := waitTerminal(t, j2); e.Type != EventSucceeded {
		t.Fatalf("terminal event %q, want succeeded", e.Type)
	}
	st := r2.Snapshot(j2)
	if !st.Adopted {
		t.Fatal("re-adopted job not marked adopted")
	}
	var res struct{ Done, Ran int }
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Done != total {
		t.Fatalf("done = %d, want %d", res.Done, total)
	}
	if res.Ran != total-4 {
		t.Fatalf("second process ran %d steps, want %d (restored prefix must be skipped)", res.Ran, total-4)
	}
	// The resumed stream must continue past the pre-restart seqs.
	evs := j2.Events.After(-1)
	if len(evs) == 0 || evs[0].Seq < seqBefore {
		t.Fatalf("resumed stream restarted its seqs: first=%d, pre-restart next=%d", evs[0].Seq, seqBefore)
	}
	if evs[0].Type != "adopted" {
		t.Fatalf("first post-restart event %q, want adopted", evs[0].Type)
	}
}

// TestRegistryRestartStreamContinuity is satellite coverage for the
// Last-Event-ID contract: a live subscriber follows a job's event log
// through a registry shutdown, then resumes on the re-adopted job with
// After(lastSeq) — exactly what an SSE client reconnecting with
// Last-Event-ID does. The merged stream must be strictly monotone with
// no duplicates, pick up with the "adopted" marker, and end terminal.
func TestRegistryRestartStreamContinuity(t *testing.T) {
	dir := t.TempDir()
	mgr, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	const total = 8
	first := &fakeTask{total: total, gate: make(chan struct{}, total)}
	r1 := NewRegistry(RegistryOptions{
		Factory:   singleTaskFactory(map[string]*fakeTask{"fake": first}),
		Manager:   mgr,
		SaveEvery: time.Hour,
	})
	j1, err := r1.Create("fake", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}

	// Live subscriber: drain j1's log exactly the way the SSE handler
	// does — Changed before After — while the producer is running.
	var got []Event
	lastSeq := int64(-1)
	drain := func(log *EventLog) {
		for _, e := range log.After(lastSeq) {
			if e.Seq <= lastSeq {
				t.Fatalf("event seq %d not strictly after %d", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			got = append(got, e)
		}
	}
	for i := 0; i < 3; i++ {
		first.gate <- struct{}{}
	}
	deadline := time.After(10 * time.Second)
	for len(got) < 3 {
		ch := j1.Events.Changed()
		drain(j1.Events)
		if len(got) >= 3 {
			break
		}
		select {
		case <-ch:
		case <-deadline:
			t.Fatalf("subscriber saw %d events before restart, want 3", len(got))
		}
	}
	preRestart := len(got)
	r1.Close() // the stream dies mid-run, like a coordinator crash

	second := &fakeTask{total: total}
	mgr2, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry(RegistryOptions{
		Factory: singleTaskFactory(map[string]*fakeTask{"fake": second}),
		Manager: mgr2,
	})
	defer r2.Close()
	if resumed, err := r2.Recover(); err != nil || resumed != 1 {
		t.Fatalf("recover: resumed=%d err=%v", resumed, err)
	}
	j2, err := r2.Get(j1.ID)
	if err != nil {
		t.Fatal("re-adopted job not resolvable")
	}
	waitTerminal(t, j2)

	// Reconnect with the pre-restart Last-Event-ID and drain to the end.
	drain(j2.Events)
	if len(got) <= preRestart {
		t.Fatal("no events delivered after the restart resume")
	}
	resumeHead := got[preRestart]
	if resumeHead.Type != "adopted" {
		t.Fatalf("first post-restart event %q, want adopted", resumeHead.Type)
	}
	seen := make(map[int64]bool, len(got))
	prev := int64(-1)
	for _, e := range got {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d in merged stream", e.Seq)
		}
		seen[e.Seq] = true
		if e.Seq <= prev {
			t.Fatalf("merged stream not strictly increasing: %d after %d", e.Seq, prev)
		}
		prev = e.Seq
	}
	if last := got[len(got)-1]; last.Type != EventSucceeded {
		t.Fatalf("merged stream ends with %q, want succeeded", last.Type)
	}
}

// TestRegistryRecoverFinishedJob proves terminal jobs stay queryable
// across a restart (until TTL eviction) without re-running anything.
func TestRegistryRecoverFinishedJob(t *testing.T) {
	dir := t.TempDir()
	mgr, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	task := &fakeTask{total: 2}
	r1 := NewRegistry(RegistryOptions{
		Factory: singleTaskFactory(map[string]*fakeTask{"fake": task}),
		Manager: mgr,
	})
	j1, err := r1.Create("fake", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
	r1.Close()

	r2 := NewRegistry(RegistryOptions{
		Factory: func(string, json.RawMessage) (Task, error) {
			t.Fatal("factory must not run for finished jobs")
			return nil, nil
		},
		Manager: mgr,
	})
	defer r2.Close()
	resumed, err := r2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("resumed %d, want 0", resumed)
	}
	j2, err := r2.Get(j1.ID)
	if err != nil {
		t.Fatal("finished job lost across restart")
	}
	st := r2.Snapshot(j2)
	if st.State != StatusSucceeded || len(st.Result) == 0 {
		t.Fatalf("recovered status = %+v", st)
	}
}
