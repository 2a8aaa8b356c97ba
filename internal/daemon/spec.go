package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wdl"
)

// CampaignRequest is the POST /v1/campaigns body: a campaign spec expressed
// as data. Cells reference workloads by name and carry (partial) simulator
// configurations as the same canonical JSON the content-addressed cache
// hashes — admission validates every cell by computing the exact key the
// cache would use, so a request that admits is a request the engine can
// memoize.
type CampaignRequest struct {
	// ID, when set, is the client's idempotency key: re-submitting an ID
	// the server already knows returns the existing job instead of
	// creating a duplicate. Server-generated when empty. IDs become state
	// filenames, so the accepted alphabet is [A-Za-z0-9._-], length 1–64.
	ID string `json:"id,omitempty"`
	// Name labels the campaign in logs and status output.
	Name string `json:"name,omitempty"`
	// Cells are the campaign's cells, started in this order.
	Cells []CellSpec `json:"cells"`
	// DeadlineMS, when positive, bounds the whole campaign's wall-clock
	// time (capped at the server's MaxDeadline; the server default
	// applies when zero). The deadline propagates as a context into the
	// campaign engine; an expired job keeps its partial results, and the
	// cache keeps every cell it completed.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// WaitMS, when positive, lets the submit call block until the job
	// reaches a terminal state (capped at the server's MaxWait). Warm-
	// cache campaigns complete within the wait and return results inline.
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// CellSpec is one wire-format campaign cell: a named workload plus an
// optional simulator-config override.
type CellSpec struct {
	// ID names the cell within the campaign (required, ≤128 chars).
	ID string `json:"id"`
	// Workload is a workload name from the evaluation set (see
	// `pgcsim -list`). Mutually exclusive with WDL.
	Workload string `json:"workload,omitempty"`
	// WDL, when set, carries an inline workload description (the .wdl
	// language) compiled server-side; it must define exactly one workload.
	// Mutually exclusive with Workload, capped at maxWDLBytes.
	WDL string `json:"wdl,omitempty"`
	// Config, when present, is merged over the server's default cell
	// configuration: fields present in the JSON override the default,
	// everything else keeps it. Unknown fields are rejected.
	Config json.RawMessage `json:"config,omitempty"`
}

var jobIDPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// maxTraceCapacity caps the per-cell event-tracer ring buffer a request may
// ask for; anything larger is a memory-exhaustion vector, not a use case.
const maxTraceCapacity = 1 << 20

// maxWDLBytes caps an inline workload description. Real descriptions are a
// few hundred bytes; the cap guards the parser against megabyte bodies.
const maxWDLBytes = 64 << 10

// compiled is an admitted request: the executable spec plus every cell's
// content key (the warm-probe input).
type compiled struct {
	spec campaign.Spec
	keys []campaign.Key
}

// compile validates req against the server's limits and lowers it to an
// executable campaign.Spec. All errors are client errors (HTTP 400).
func (s *Server) compile(req *CampaignRequest) (*compiled, error) {
	if req.ID != "" && !jobIDPattern.MatchString(req.ID) {
		return nil, fmt.Errorf("invalid job id %q: want [A-Za-z0-9._-]{1,64}", req.ID)
	}
	if len(req.Cells) == 0 {
		return nil, fmt.Errorf("campaign has no cells")
	}
	if max := s.cfg.MaxCells; len(req.Cells) > max {
		return nil, fmt.Errorf("campaign has %d cells, server cap is %d", len(req.Cells), max)
	}
	out := &compiled{spec: campaign.Spec{Name: req.Name}}
	for i := range req.Cells {
		c := &req.Cells[i]
		if c.ID == "" {
			return nil, fmt.Errorf("cell %d: empty id", i)
		}
		if len(c.ID) > 128 {
			return nil, fmt.Errorf("cell %d: id longer than 128 bytes", i)
		}
		w, err := cellWorkload(c)
		if err != nil {
			return nil, fmt.Errorf("cell %q: %w", c.ID, err)
		}
		cfg, err := s.cellConfig(c.Config)
		if err != nil {
			return nil, fmt.Errorf("cell %q: %w", c.ID, err)
		}
		out.spec.Cells = append(out.spec.Cells, campaign.Cell{ID: c.ID, Config: cfg, Workload: w})
	}
	if err := out.spec.Validate(); err != nil {
		return nil, err
	}
	// Key every cell exactly the way the cache will: a cell the cache
	// cannot address is a cell the daemon will not admit.
	for i := range out.spec.Cells {
		k, err := campaign.KeyOf(out.spec.Cells[i].Config, out.spec.Cells[i].Workload)
		if err != nil {
			return nil, fmt.Errorf("cell %q: %w", out.spec.Cells[i].ID, err)
		}
		out.keys = append(out.keys, k)
	}
	return out, nil
}

// cellWorkload resolves a cell's instruction source: a registry name, or an
// inline WDL body defining exactly one workload. The WDL path reuses the
// same compiler as the CLIs, so a description that works locally admits
// identically over the wire — and since compiled workloads are plain
// generator configs, the cache keys them exactly like registry cells.
func cellWorkload(c *CellSpec) (trace.Workload, error) {
	switch {
	case c.Workload != "" && c.WDL != "":
		return trace.Workload{}, fmt.Errorf(`"workload" and "wdl" are mutually exclusive`)
	case c.WDL != "":
		if len(c.WDL) > maxWDLBytes {
			return trace.Workload{}, fmt.Errorf("wdl body is %d bytes, cap is %d", len(c.WDL), maxWDLBytes)
		}
		ws, err := wdl.ParseWorkloads("wdl", []byte(c.WDL))
		if err != nil {
			return trace.Workload{}, err
		}
		if len(ws) != 1 {
			return trace.Workload{}, fmt.Errorf("wdl body must define exactly one workload, has %d", len(ws))
		}
		return ws[0], nil
	case c.Workload != "":
		w, ok := trace.ByName(c.Workload)
		if !ok {
			return trace.Workload{}, fmt.Errorf("unknown workload %q", c.Workload)
		}
		return w, nil
	default:
		return trace.Workload{}, fmt.Errorf(`needs a "workload" name or an inline "wdl" body`)
	}
}

// cellConfig merges a request's config JSON over the server's default cell
// configuration and enforces the request-facing limits.
func (s *Server) cellConfig(raw json.RawMessage) (sim.Config, error) {
	cfg := s.defaultCellConfig()
	if len(raw) > 0 {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return cfg, fmt.Errorf("config: %w", err)
		}
	}
	if cfg.FaultInject != nil {
		return cfg, fmt.Errorf("config: fault injection is not accepted over the wire")
	}
	// A prefetcher or policy name New would reject fails here, not in every
	// cell's build stage.
	if err := cfg.CheckNames(); err != nil {
		return cfg, fmt.Errorf("config: %w", err)
	}
	if cfg.TraceCapacity > maxTraceCapacity {
		return cfg, fmt.Errorf("config: TraceCapacity %d exceeds cap %d", cfg.TraceCapacity, maxTraceCapacity)
	}
	// Sampling is accepted over the wire (it is part of the content key, so
	// sampled cells never alias full ones), but only structurally valid
	// schedules: a period shorter than its ramp+interval would fail deep in
	// the engine instead of at admission.
	if err := cfg.Sample.Validate(); err != nil {
		return cfg, fmt.Errorf("config: %w", err)
	}
	if cfg.SimInstrs == 0 {
		return cfg, fmt.Errorf("config: SimInstrs must be positive")
	}
	if total := cfg.WarmupInstrs + cfg.SimInstrs; total > s.cfg.MaxInstrs {
		return cfg, fmt.Errorf("config: %d warmup+measured instructions exceed server cap %d", total, s.cfg.MaxInstrs)
	}
	return cfg, nil
}

// defaultCellConfig is the configuration a cell with no config override
// runs: the paper's default system, scaled to the server's default budget.
func (s *Server) defaultCellConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = s.cfg.DefaultWarmup
	cfg.SimInstrs = s.cfg.DefaultInstrs
	return cfg
}
