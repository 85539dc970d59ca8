// client_state.xml import: the paper's web interface lets alpha testers
// paste their BOINC client state files to reproduce scheduling problems
// under the emulator. This file parses the subset of that format needed
// to reconstruct a scenario: host hardware, coprocessors, attached
// projects with resource shares, application versions (device usage),
// and in-progress results (whose estimates and deadlines parameterise
// each project's job stream).
package scenario

import (
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// finitePos reports whether x is a finite positive number. State files
// are untrusted input; NaN/Inf would sail through the `<= 0` style
// validation checks downstream and poison every figure of merit.
func finitePos(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && x > 0
}

type xmlClientState struct {
	XMLName  xml.Name        `xml:"client_state"`
	HostInfo xmlHostInfo     `xml:"host_info"`
	Projects []xmlProject    `xml:"project"`
	Apps     []xmlAppVersion `xml:"app_version"`
	Workunit []xmlWorkunit   `xml:"workunit"`
	Results  []xmlResult     `xml:"result"`
	Prefs    xmlGlobalPrefs  `xml:"global_preferences"`
	TimeNow  float64         `xml:"time_stats>now"` // optional
}

type xmlHostInfo struct {
	NCPUs   int       `xml:"p_ncpus"`
	FPOps   float64   `xml:"p_fpops"`
	MemSize float64   `xml:"m_nbytes"`
	Coprocs xmlCoproc `xml:"coprocs"`
}

type xmlCoproc struct {
	Cuda xmlGPU `xml:"coproc_cuda"`
	Ati  xmlGPU `xml:"coproc_ati"`
}

type xmlGPU struct {
	Count     int     `xml:"count"`
	PeakFlops float64 `xml:"peak_flops"`
}

type xmlProject struct {
	MasterURL     string  `xml:"master_url"`
	ProjectName   string  `xml:"project_name"`
	ResourceShare float64 `xml:"resource_share"`
}

type xmlAppVersion struct {
	AppName  string      `xml:"app_name"`
	AvgNCPUs float64     `xml:"avg_ncpus"`
	Flops    float64     `xml:"flops"`
	Coproc   xmlAVCoproc `xml:"coproc"`
}

type xmlAVCoproc struct {
	Type  string  `xml:"type"`
	Count float64 `xml:"count"`
}

type xmlWorkunit struct {
	Name     string  `xml:"name"`
	AppName  string  `xml:"app_name"`
	FPOpsEst float64 `xml:"rsc_fpops_est"`
}

type xmlResult struct {
	Name           string  `xml:"name"`
	WUName         string  `xml:"wu_name"`
	ProjectURL     string  `xml:"project_url"`
	ReceivedTime   float64 `xml:"received_time"`
	ReportDeadline float64 `xml:"report_deadline"`
}

type xmlGlobalPrefs struct {
	WorkBufMinDays        float64 `xml:"work_buf_min_days"`
	WorkBufAdditionalDays float64 `xml:"work_buf_additional_days"`
	LeaveAppsInMemory     int     `xml:"leave_apps_in_memory"`
}

// ImportClientState parses a BOINC client_state.xml (subset) into a
// Scenario. The import is best-effort: job streams are reconstructed
// from the in-progress results' estimates and deadlines, since the
// state file is a snapshot, not a generator.
func ImportClientState(r io.Reader) (*Scenario, error) {
	var cs xmlClientState
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&cs); err != nil {
		return nil, fmt.Errorf("client_state: %w", err)
	}
	if cs.HostInfo.NCPUs <= 0 || !finitePos(cs.HostInfo.FPOps) {
		return nil, fmt.Errorf("client_state: missing or invalid <host_info>")
	}
	if m := cs.HostInfo.MemSize; m != 0 && !finitePos(m) {
		return nil, fmt.Errorf("client_state: invalid <m_nbytes> %v", m)
	}
	if len(cs.Projects) == 0 {
		return nil, fmt.Errorf("client_state: no <project> entries")
	}

	s := &Scenario{
		Name: "imported",
		Host: HostJSON{
			NCPU:      cs.HostInfo.NCPUs,
			CPUGFlops: cs.HostInfo.FPOps / 1e9,
			MemGB:     cs.HostInfo.MemSize / 1e9,
		},
	}
	// A coprocessor with a nonsensical peak speed is dropped rather
	// than rejected: the import is best-effort and the host still works
	// as a CPU-only machine.
	if gpu := cs.HostInfo.Coprocs.Cuda; gpu.Count > 0 && finitePos(gpu.PeakFlops) {
		s.Host.NGPU = gpu.Count
		s.Host.GPUGFlops = gpu.PeakFlops / float64(gpu.Count) / 1e9
		s.Host.GPUKind = "nvidia"
	} else if gpu := cs.HostInfo.Coprocs.Ati; gpu.Count > 0 && finitePos(gpu.PeakFlops) {
		s.Host.NGPU = gpu.Count
		s.Host.GPUGFlops = gpu.PeakFlops / float64(gpu.Count) / 1e9
		s.Host.GPUKind = "ati"
	}
	if finitePos(cs.Prefs.WorkBufMinDays) {
		extra := cs.Prefs.WorkBufAdditionalDays
		if !finitePos(extra) {
			extra = 0
		}
		lo := cs.Prefs.WorkBufMinDays * 24
		hi := (cs.Prefs.WorkBufMinDays + extra) * 24
		// Guard the products, not just the inputs: a finite day count
		// near MaxFloat64 still overflows to +Inf when scaled.
		if finitePos(lo) && finitePos(hi) {
			s.Host.MinQueueHours = lo
			s.Host.MaxQueueHours = hi
		}
	}
	s.Host.LeaveInMemory = cs.Prefs.LeaveAppsInMemory != 0

	// Index workunits and app versions by name.
	wus := make(map[string]xmlWorkunit, len(cs.Workunit))
	for _, w := range cs.Workunit {
		wus[w.Name] = w
	}
	apps := make(map[string]xmlAppVersion, len(cs.Apps))
	for _, a := range cs.Apps {
		apps[a.AppName] = a
	}

	// Group results by project URL to recover per-project job streams.
	type appStats struct {
		name      string
		durations []float64
		latencies []float64
		av        xmlAppVersion
		hasAV     bool
	}
	byProject := make(map[string]map[string]*appStats)
	for _, res := range cs.Results {
		wu, ok := wus[res.WUName]
		if !ok {
			continue
		}
		av, hasAV := apps[wu.AppName]
		flops := av.Flops
		if !finitePos(flops) {
			flops = cs.HostInfo.FPOps
		}
		dur := wu.FPOpsEst / flops
		if !finitePos(dur) {
			continue
		}
		lat := res.ReportDeadline - res.ReceivedTime
		if !finitePos(lat) {
			lat = dur * 10
		}
		pm := byProject[res.ProjectURL]
		if pm == nil {
			pm = make(map[string]*appStats)
			byProject[res.ProjectURL] = pm
		}
		st := pm[wu.AppName]
		if st == nil {
			st = &appStats{name: wu.AppName, av: av, hasAV: hasAV}
			pm[wu.AppName] = st
		}
		st.durations = append(st.durations, dur)
		st.latencies = append(st.latencies, lat)
	}

	for _, p := range cs.Projects {
		pj := ProjectJSON{
			Name:  projectLabel(p),
			Share: p.ResourceShare,
		}
		if !finitePos(pj.Share) {
			pj.Share = 100
		}
		pm := byProject[p.MasterURL]
		// Deterministic app order.
		var names []string
		for n := range pm {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			st := pm[n]
			app := AppJSON{
				Name:        n,
				NCPUs:       1,
				MeanSecs:    median(st.durations),
				LatencySecs: median(st.latencies),
			}
			if st.hasAV {
				if finitePos(st.av.AvgNCPUs) {
					app.NCPUs = st.av.AvgNCPUs
				}
				if finitePos(st.av.Coproc.Count) {
					app.NGPUs = st.av.Coproc.Count
					switch strings.ToUpper(st.av.Coproc.Type) {
					case "ATI", "CAL", "AMD":
						app.GPUKind = "ati"
					default:
						app.GPUKind = "nvidia"
					}
				}
			}
			pj.Apps = append(pj.Apps, app)
		}
		if len(pj.Apps) == 0 {
			// Project with no in-progress results: synthesise a generic
			// CPU app so it still participates in scheduling.
			pj.Apps = append(pj.Apps, AppJSON{
				Name: "generic", NCPUs: 1, MeanSecs: 3600, LatencySecs: 86400,
			})
		}
		s.Projects = append(s.Projects, pj)
	}
	if _, err := s.Config(); err != nil {
		return nil, fmt.Errorf("client_state: imported scenario invalid: %w", err)
	}
	return s, nil
}

func projectLabel(p xmlProject) string {
	if p.ProjectName != "" {
		return p.ProjectName
	}
	return p.MasterURL
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
