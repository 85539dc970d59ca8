package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"bce/internal/client"
	"bce/internal/harness"
	"bce/internal/host"
	"bce/internal/runner"
	"bce/internal/sched"
)

// One seed keeps the suite fast; the figures are strongly separated so
// a single replication is decisive. cmd/bcectl and the benchmarks run
// more seeds.
var seeds = []int64{1}

func TestFigure1ShareSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	fig, err := Figure1(context.Background(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	aCPU, bCPU := fig.Y["CPU"][0], fig.Y["CPU"][1]
	aGPU, bGPU := fig.Y["GPU"][0], fig.Y["GPU"][1]
	aTot, bTot := fig.Y["total"][0], fig.Y["total"][1]
	// Paper Figure 1: A ≈ 10 GF CPU + 5 GF GPU, B ≈ 15 GF GPU; each
	// project ends up with ~15 GF. Allow emulation slack.
	if aCPU < 8 {
		t.Fatalf("project A CPU = %v GF, want ~10 (all of the CPU)", aCPU)
	}
	if bCPU > 3 {
		t.Fatalf("project B CPU = %v GF, want ~0 (B has no CPU jobs beyond GPU feeding)", bCPU)
	}
	if aGPU < 3 || aGPU > 8 {
		t.Fatalf("project A GPU = %v GF, want ~5 (25%% of the GPU)", aGPU)
	}
	if bGPU < 12 || bGPU > 18 {
		t.Fatalf("project B GPU = %v GF, want ~15 (75%% of the GPU)", bGPU)
	}
	if aTot < 13 || aTot > 18 || bTot < 13 || bTot > 18 {
		t.Fatalf("totals A=%v B=%v, want ~15 each (equal shares)", aTot, bTot)
	}
}

func TestFigure2Trace(t *testing.T) {
	fig := Figure2()
	if len(fig.X) < 3 {
		t.Fatalf("trace has %d steps, want several", len(fig.X))
	}
	// Busy counts never exceed the instance counts and end at 0.
	for i := range fig.X {
		if fig.Y["CPU"][i] < 0 || fig.Y["CPU"][i] > 4 {
			t.Fatalf("CPU busy out of range at %d: %v", i, fig.Y["CPU"][i])
		}
		if fig.Y["GPU"][i] < 0 || fig.Y["GPU"][i] > 1 {
			t.Fatalf("GPU busy out of range at %d: %v", i, fig.Y["GPU"][i])
		}
	}
	last := len(fig.X) - 1
	if fig.Y["CPU"][last] != 0 {
		t.Fatalf("workload should drain; final CPU busy = %v", fig.Y["CPU"][last])
	}
	// Starts fully busy (4 CPU jobs' worth queued on 4 CPUs).
	if fig.Y["CPU"][0] != 4 || fig.Y["GPU"][0] != 1 {
		t.Fatalf("initial busy = %v/%v, want 4/1", fig.Y["CPU"][0], fig.Y["GPU"][0])
	}
}

func TestFigure3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	fig, err := Figure3(context.Background(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	// Zero slack: every policy wastes about half the processing.
	for _, l := range fig.Labels {
		if v := fig.Y[l][0]; v < 0.35 || v > 0.65 {
			t.Fatalf("%s wasted %v at zero slack, want ~0.5", l, v)
		}
	}
	// With slack, the deadline-aware policies waste much less than WRR.
	for i := 1; i < len(fig.X); i++ {
		wrr := fig.Y["JS-WRR"][i]
		for _, l := range []string{"JS-LOCAL", "JS-GLOBAL"} {
			if fig.Y[l][i] >= wrr {
				t.Fatalf("at bound %v, %s wasted %v >= JS-WRR %v",
					fig.X[i], l, fig.Y[l][i], wrr)
			}
		}
	}
	// And they approach zero at generous slack.
	if v := fig.Y["JS-LOCAL"][len(fig.X)-1]; v > 0.1 {
		t.Fatalf("JS-LOCAL wasted %v at bound 2000, want ~0", v)
	}
}

func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	fig, err := Figure4(context.Background(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	local, global := fig.Y["JS-LOCAL"][0], fig.Y["JS-GLOBAL"][0]
	if global >= local {
		t.Fatalf("share violation: global %v >= local %v; paper says global is lower", global, local)
	}
	// Both keep the machine busy (idle ~0).
	if fig.Y["JS-LOCAL"][1] > 0.1 || fig.Y["JS-GLOBAL"][1] > 0.1 {
		t.Fatalf("idle fractions too high: %v / %v", fig.Y["JS-LOCAL"][1], fig.Y["JS-GLOBAL"][1])
	}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	fig, err := Figure5(context.Background(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	origRPC, hystRPC := fig.Y["JF-ORIG"][0], fig.Y["JF-HYSTERESIS"][0]
	if hystRPC >= origRPC {
		t.Fatalf("RPCs/job: hysteresis %v >= orig %v; paper says hysteresis is lower", hystRPC, origRPC)
	}
	origMono, hystMono := fig.Y["JF-ORIG"][1], fig.Y["JF-HYSTERESIS"][1]
	if hystMono <= origMono {
		t.Fatalf("monotony: hysteresis %v <= orig %v; paper says hysteresis increases it", hystMono, origMono)
	}
	// The JF-SPREAD hybrid should land between the two on both axes.
	spreadRPC, spreadMono := fig.Y["JF-SPREAD"][0], fig.Y["JF-SPREAD"][1]
	if spreadRPC <= hystRPC || spreadRPC >= origRPC {
		t.Fatalf("JF-SPREAD RPCs %v not between hysteresis %v and orig %v", spreadRPC, hystRPC, origRPC)
	}
	if spreadMono <= origMono || spreadMono >= hystMono {
		t.Fatalf("JF-SPREAD monotony %v not between orig %v and hysteresis %v", spreadMono, origMono, hystMono)
	}
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	fig, err := Figure6(context.Background(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	ys := fig.Y["JS-REC"]
	// Short memory → high violation; long memory → low.
	if ys[0] <= ys[len(ys)-1] {
		t.Fatalf("violation should fall with half-life: %v", ys)
	}
	if ys[0] < 0.2 {
		t.Fatalf("violation at short half-life = %v, want substantial", ys[0])
	}
	if ys[len(ys)-1] > 0.2 {
		t.Fatalf("violation at long half-life = %v, want small", ys[len(ys)-1])
	}
	// Broadly decreasing (allow one inversion from noise).
	inversions := 0
	for i := 1; i < len(ys); i++ {
		if ys[i] > ys[i-1]+0.02 {
			inversions++
		}
	}
	if inversions > 1 {
		t.Fatalf("violation not broadly decreasing: %v", ys)
	}
}

func TestScenarioConfigsValid(t *testing.T) {
	for name, cfg := range map[string]client.Config{
		"s1": Scenario1(1500, 0, 1),
		"s2": Scenario2(0, 1),
		"s3": Scenario3(1e6, 1),
		"s4": Scenario4(0, 1),
	} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
	}
}

func TestScenario4Composition(t *testing.T) {
	cfg := Scenario4(0, 1)
	if len(cfg.Projects) != 20 {
		t.Fatalf("scenario 4 has %d projects, want 20", len(cfg.Projects))
	}
	gpuOnly, both, cpuOnly := 0, 0, 0
	for _, p := range cfg.Projects {
		hasCPU, hasGPU := false, false
		for _, a := range p.Apps {
			if a.Usage.IsGPU() {
				hasGPU = true
			} else {
				hasCPU = true
			}
		}
		switch {
		case hasCPU && hasGPU:
			both++
		case hasGPU:
			gpuOnly++
		default:
			cpuOnly++
		}
	}
	if gpuOnly == 0 || both == 0 || cpuOnly == 0 {
		t.Fatalf("job types not varied: gpu=%d both=%d cpu=%d", gpuOnly, both, cpuOnly)
	}
}

func TestFigureFormatting(t *testing.T) {
	fig := Figure2()
	if fig.Header() == "" || fig.Row(0) == "" {
		t.Fatal("figure formatting empty")
	}
}

// Sanity: the scenario-2 hardware matches the paper (GPU 10× one CPU).
func TestScenario2Hardware(t *testing.T) {
	cfg := Scenario2(0, 1)
	hw := cfg.Host.Hardware
	if hw.Proc[host.CPU].Count != 4 || hw.Proc[host.NvidiaGPU].Count != 1 {
		t.Fatal("scenario 2 device counts wrong")
	}
	ratio := hw.Proc[host.NvidiaGPU].FLOPSPerInst / hw.Proc[host.CPU].FLOPSPerInst
	if ratio != 10 {
		t.Fatalf("GPU/CPU speed ratio = %v, want 10", ratio)
	}
}

// The harness path used by bcectl agrees with a direct client run.
func TestHarnessIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	cmp, err := harness.Compare(context.Background(), []harness.Variant{{
		Label: "s2-local",
		Make:  func(s int64) client.Config { return Scenario2(sched.JSLocal, s) },
	}}, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	agg := cmp.Aggs["s2-local"]
	direct, err := runner.Run(context.Background(), Scenario2(sched.JSLocal, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Metrics.Values()
	for i, v := range agg.Mean {
		if diff := v - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("harness aggregate %v != direct run %v", agg.Mean, want)
		}
	}
}

func TestExtTransferShape(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	fig, err := ExtTransfer(context.Background(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	missed := fig.Y["missed_per_day"]
	// Order on X: fifo, smallest-first, edf. EDF best, smallest worst.
	if missed[2] >= missed[0] {
		t.Fatalf("EDF misses %v >= FIFO %v", missed[2], missed[0])
	}
	if missed[1] <= missed[0] {
		t.Fatalf("smallest-first misses %v <= FIFO %v", missed[1], missed[0])
	}
}

func TestExtFleetShape(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	fig, err := ExtFleet(context.Background(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	v := fig.Y["violation"]
	if v[1] >= v[0] {
		t.Fatalf("planned violation %v >= uniform %v", v[1], v[0])
	}
	if v[1] > 0.05 {
		t.Fatalf("planned violation %v, want near zero", v[1])
	}
}

func TestExtServerShape(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation-heavy")
	}
	fig, err := ExtServer(context.Background(), []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	thr := fig.Y["validWU_per_day"]
	// Throughput falls as quorum rises: 1of1 > 2of2 > 3of3.
	if !(thr[0] > thr[1] && thr[1] > thr[3]) {
		t.Fatalf("throughput not ordered by quorum: %v", thr)
	}
	// 2-of-3 carries the redundancy waste.
	waste := fig.Y["waste"]
	if waste[2] <= waste[1] {
		t.Fatalf("2-of-3 waste %v <= 2-of-2 %v", waste[2], waste[1])
	}
	// ... and buys a shorter turnaround than 2-of-2.
	turn := fig.Y["turnaround_h"]
	if turn[2] >= turn[1] {
		t.Fatalf("2-of-3 turnaround %v >= 2-of-2 %v", turn[2], turn[1])
	}
}

func TestExtensionRegistry(t *testing.T) {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	want := "fig1 fig2 fig3 fig4 fig5 fig6 ext-transfer ext-fleet ext-server"
	if got := strings.Join(ids, " "); got != want {
		t.Fatalf("registry order = %q, want %q", got, want)
	}
	if e, err := ByID("ext-fleet"); err != nil || e.ID != "ext-fleet" {
		t.Fatalf("ByID(ext-fleet) = %q, %v", e.ID, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// Every generator that emulates must stop on a canceled context and
// say why; fig2 runs no emulation.
func TestFiguresHonorCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range All() {
		if e.ID == "fig2" {
			continue
		}
		if _, err := e.Gen(ctx, seeds); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", e.ID, err)
		}
	}
}
