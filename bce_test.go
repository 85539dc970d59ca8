package bce

import (
	"context"
	"strings"
	"testing"
)

func twoProjectScenario() *Scenario {
	return &Scenario{
		Name: "api-test", DurationDays: 1, Seed: 3,
		Host: HostJSON{NCPU: 2, CPUGFlops: 1, MinQueueHours: 0.5, MaxQueueHours: 1},
		Projects: []ProjectJSON{
			{Name: "a", Share: 100, Apps: []AppJSON{
				{Name: "app", NCPUs: 1, MeanSecs: 900, LatencySecs: 86400},
			}},
			{Name: "b", Share: 100, Apps: []AppJSON{
				{Name: "app", NCPUs: 1, MeanSecs: 600, LatencySecs: 86400},
			}},
		},
	}
}

func TestRunScenario(t *testing.T) {
	res, err := Run(twoProjectScenario())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CompletedJobs == 0 {
		t.Fatal("no jobs completed")
	}
	for _, v := range res.Metrics.Values() {
		if v < 0 || v > 1 {
			t.Fatalf("metric out of range: %v", res.Metrics)
		}
	}
}

func TestRunInvalidScenario(t *testing.T) {
	if _, err := Run(&Scenario{}); err == nil {
		t.Fatal("empty scenario accepted")
	}
}

func TestRunWithTimeline(t *testing.T) {
	var log strings.Builder
	res, err := RunWithTimeline(twoProjectScenario(), &log)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline == nil || len(res.Timeline.Segments) == 0 {
		t.Fatal("no timeline recorded")
	}
	if !strings.Contains(log.String(), "start ") {
		t.Fatal("message log not written")
	}
	if out := res.Timeline.ASCII(2, 60); !strings.Contains(out, "#") {
		t.Fatal("ASCII timeline empty")
	}
}

func TestScenarioJSONAPI(t *testing.T) {
	s := twoProjectScenario()
	var buf strings.Builder
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenario(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name {
		t.Fatal("round trip lost name")
	}
}

func TestMetricNames(t *testing.T) {
	n := MetricNames()
	if n[0] != "idle" || n[2] != "share_violation" {
		t.Fatalf("MetricNames = %v", n)
	}
}

func TestDeterministicAPI(t *testing.T) {
	a, err := Run(twoProjectScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(twoProjectScenario())
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.Values() != b.Metrics.Values() {
		t.Fatal("same scenario+seed produced different metrics")
	}
}

func TestLoadScenarioFileAPI(t *testing.T) {
	s, err := LoadScenarioFile("testdata/two_projects.json")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "two-projects" || len(s.Projects) != 2 {
		t.Fatalf("loaded scenario wrong: %+v", s)
	}
	if _, err := LoadScenarioFile("testdata/does_not_exist.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestImportClientStateAPI(t *testing.T) {
	const state = `<client_state>
  <host_info><p_ncpus>2</p_ncpus><p_fpops>1e9</p_fpops><m_nbytes>4e9</m_nbytes></host_info>
  <project><master_url>http://x/</master_url><resource_share>100</resource_share></project>
</client_state>`
	s, err := ImportClientState(strings.NewReader(state))
	if err != nil {
		t.Fatal(err)
	}
	if s.Host.NCPU != 2 {
		t.Fatal("import wrong")
	}
	res, err := func() (*Result, error) {
		s.DurationDays = 0.1
		return Run(s)
	}()
	if err != nil || res == nil {
		t.Fatalf("imported scenario failed to run: %v", err)
	}
	if _, err := ImportClientState(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRunConfigInvalid(t *testing.T) {
	if _, err := RunConfigContext(context.Background(), Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}
