package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"specchar/internal/client"
	"specchar/internal/dataset"
	"specchar/internal/mtree"
)

// The crash-recovery acceptance test: SIGKILL a live daemon at seeded
// points around a durable hot-swap — inside the artifact write, inside
// the journal append, inside journal compaction (including boot-time
// compaction), and at raw timer-driven moments mid-request — then
// restart against the same state dir and require that it always boots
// and always serves exactly the pre-swap or the post-swap model, with
// version counters that never move backwards. 50 kill/recover rounds
// against one accumulating state directory; any torn journal, lost
// acknowledged write, or resurrected version fails the round.
//
// The daemon binary is built with -race and -tags faultinject so the
// in-process kill sites (armed via SPECCHAR_FAULTS) are live and the
// race detector is watching the recovery paths.
func TestCrashRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep spawns 50 daemon processes; skipped in -short")
	}
	bin := buildDaemon(t)
	stateDir := t.TempDir()

	// Two distinguishable artifacts: every swap alternates between them,
	// and their predictions on the probe row tell us which one a
	// recovered daemon is actually serving. JSON round-trips float64
	// exactly, so equality is exact.
	treeA := crashTree(t, 1)
	treeB := crashTree(t, 2)
	var artA, artB bytes.Buffer
	if _, err := treeA.WriteTo(&artA); err != nil {
		t.Fatal(err)
	}
	if _, err := treeB.WriteTo(&artB); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, 0.6, 0.2, 0.8}
	preds := map[string]float64{"A": treeA.Predict(probe), "B": treeB.Predict(probe)}
	arts := map[string][]byte{"A": artA.Bytes(), "B": artB.Bytes()}
	if preds["A"] == preds["B"] {
		t.Fatal("fixture trees indistinguishable on the probe row")
	}

	// Kill plans cycle through the durability-critical sites; the
	// "external" plan SIGKILLs from outside at a seeded delay while the
	// swap request is in flight, sweeping arbitrary instruction
	// boundaries the named sites cannot reach.
	plans := []string{
		"registry.artifact.write=kill@1",
		"registry.journal.append=kill@1",
		"registry.journal.compact=kill@1",
		"external",
	}
	rng := rand.New(rand.NewSource(42))

	// Ground truth carried across rounds. floor is the highest version a
	// daemon ever showed us; servedPred is what that version predicts.
	// attempted describes the swap whose fate the next boot resolves.
	floor, servedPred := 0, 0.0
	attempted, acked := "", false
	next := "A"

	const rounds = 50
	for round := 0; round < rounds; round++ {
		plan := plans[round%len(plans)]
		env := ""
		if plan != "external" {
			env = plan + ";seed=" + fmt.Sprint(round+1)
		}
		d := startDaemon(t, bin, stateDir, env)

		base, up := d.waitListening(10 * time.Second)
		if up {
			// Resolve the previous round's swap and (if the daemon
			// survives long enough) attempt the next one.
			cl := newCrashClient(t, base)
			version, pred, present := observe(t, cl, probe)
			checkConsistent(t, round, plan, version, pred, present, floor, servedPred, attempted, acked, preds)
			if present {
				floor, servedPred = version, pred
			}

			attempted, acked = next, false
			putCtx, putCancel := context.WithTimeout(context.Background(), 30*time.Second)
			if plan == "external" {
				done := make(chan error, 1)
				go func() {
					_, err := cl.PutModel(putCtx, "m", arts[next])
					done <- err
				}()
				time.Sleep(time.Duration(rng.Intn(15000)) * time.Microsecond)
				d.kill()
				if err := <-done; err == nil {
					acked = true
				}
			} else {
				if _, err := cl.PutModel(putCtx, "m", arts[next]); err == nil {
					// The armed site never fired (e.g. no compaction was
					// due); the write is acknowledged, kill from outside.
					acked = true
				}
				d.kill()
			}
			putCancel()
			next = map[string]string{"A": "B", "B": "A"}[next]
		} else {
			// Died during boot (e.g. kill inside boot-time compaction
			// with the fault plan armed). No swap was attempted; the
			// previous round's question carries over to the next boot.
			d.kill()
		}
		d.wait()
	}

	// Final clean boot: everything the sweep left behind must replay.
	d := startDaemon(t, bin, stateDir, "")
	base, up := d.waitListening(10 * time.Second)
	if !up {
		t.Fatalf("final recovery boot failed:\n%s", d.stderr())
	}
	cl := newCrashClient(t, base)
	version, pred, present := observe(t, cl, probe)
	checkConsistent(t, rounds, "final", version, pred, present, floor, servedPred, attempted, acked, preds)
	if !present {
		t.Error("no model survived 50 kill rounds; at least the first acknowledged swap must persist")
	}
	d.kill()
	d.wait()
	t.Logf("sweep done: final version %d after %d rounds", version, rounds)
}

// checkConsistent asserts the recovered state is exactly the pre-swap
// or the post-swap world — never torn, never regressed, and never
// missing an acknowledged write.
func checkConsistent(t *testing.T, round int, plan string, version int, pred float64, present bool,
	floor int, servedPred float64, attempted string, acked bool, preds map[string]float64) {
	t.Helper()
	switch {
	case attempted == "":
		// No swap in flight: the state must be byte-identical to what the
		// last healthy daemon served.
		if floor == 0 {
			if present {
				t.Errorf("round %d (%s): model appeared out of nowhere (v%d)", round, plan, version)
			}
		} else if !present || version != floor || pred != servedPred {
			t.Errorf("round %d (%s): idle state drifted: v%d pred %v present=%v, want v%d pred %v",
				round, plan, version, pred, present, floor, servedPred)
		}
	case acked:
		// The daemon acknowledged the swap before dying: it must be there.
		if !present || version != floor+1 || pred != preds[attempted] {
			t.Errorf("round %d (%s): acknowledged swap to %s lost: v%d pred %v present=%v, want v%d pred %v",
				round, plan, attempted, version, pred, present, floor+1, preds[attempted])
		}
	default:
		// Killed mid-swap: pre state or post state, nothing else.
		pre := present == (floor > 0) && version == floor && pred == servedPred
		if floor == 0 {
			pre = !present
		}
		post := present && version == floor+1 && pred == preds[attempted]
		if !pre && !post {
			t.Errorf("round %d (%s): torn state after mid-swap kill: v%d pred %v present=%v, want v%d/%v or v%d/%v",
				round, plan, version, pred, present, floor, servedPred, floor+1, preds[attempted])
		}
	}
}

// observe asks the daemon what it is serving: model version, the
// probe-row prediction, and whether the model exists at all.
func observe(t *testing.T, cl *client.Client, probe []float64) (int, float64, bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m, err := cl.GetModel(ctx, "m")
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Status == 404 {
			return 0, 0, false
		}
		t.Fatalf("observe: %v", err)
	}
	res, err := cl.Score(ctx, "m", [][]float64{probe})
	if err != nil {
		t.Fatalf("observe score: %v", err)
	}
	if res.Version != m.Version {
		t.Fatalf("observe: list says v%d, score says v%d", m.Version, res.Version)
	}
	return m.Version, res.Predictions[0], true
}

// newCrashClient builds a client that never retries, so each call is
// one attempt. A crash client makes at most a handful of attempts (a
// health poll, GetModel, Score, PutModel), fewer than the breaker's
// 32-outcome window, so its breaker can never open.
func newCrashClient(t *testing.T, base string) *client.Client {
	t.Helper()
	cl, err := client.New(client.Config{BaseURL: base, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitHealthy(context.Background(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return cl
}

// crashTree trains a small distinguishable compiled tree.
func crashTree(t *testing.T, seed int64) *mtree.CompiledTree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := &dataset.Schema{Response: "CPI", Attributes: []string{"l1d", "l2", "br", "tlb"}}
	d := dataset.New(schema)
	for i := 0; i < 600; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		y := float64(seed)*10 + 3*x[0] - 2*x[1] + 0.01*rng.NormFloat64()
		if err := d.Append(dataset.Sample{X: x, Y: y, Label: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	opts := mtree.DefaultOptions()
	opts.MinLeaf = 25
	tree, err := mtree.Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tree.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// buildDaemon compiles the daemon once per test run with the race
// detector and live fault injection.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "specchard")
	cmd := exec.Command("go", "build", "-race", "-tags", "faultinject", "-o", bin, ".")
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building daemon: %v\n%s", err, out)
	}
	return bin
}

// daemonProc wraps one spawned daemon: stderr capture, listen-address
// discovery, kill/wait bookkeeping.
type daemonProc struct {
	cmd  *exec.Cmd
	addr chan string

	mu   sync.Mutex
	logs []string

	waitOne sync.Once
	waitErr error
}

func startDaemon(t *testing.T, bin, stateDir, faults string) *daemonProc {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-state-dir", stateDir,
		"-state-compact-bytes", "2048",
	)
	cmd.Env = append(os.Environ(), "SPECCHAR_FAULTS="+faults)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemonProc{cmd: cmd, addr: make(chan string, 1)}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.logs = append(d.logs, line)
			d.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if sp := strings.IndexByte(rest, ' '); sp > 0 {
					rest = rest[:sp]
				}
				select {
				case d.addr <- rest:
				default:
				}
			}
		}
	}()
	t.Cleanup(func() { d.kill(); d.wait() })
	return d
}

// waitListening returns the base URL once the daemon announces its
// port, or false if it exits (or stays silent) first.
func (d *daemonProc) waitListening(timeout time.Duration) (string, bool) {
	exited := make(chan struct{})
	go func() {
		d.wait()
		close(exited)
	}()
	select {
	case a := <-d.addr:
		return "http://" + a, true
	case <-exited:
		return "", false
	case <-time.After(timeout):
		return "", false
	}
}

func (d *daemonProc) kill() {
	if d.cmd.Process != nil {
		d.cmd.Process.Kill()
	}
}

func (d *daemonProc) wait() error {
	d.waitOne.Do(func() { d.waitErr = d.cmd.Wait() })
	return d.waitErr
}

func (d *daemonProc) stderr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.logs, "\n")
}
