package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/hostif"
	"repro/internal/metrics"
	"repro/internal/oxblock"
	"repro/internal/vclock"
)

// TenantsConfig parameterizes the multi-tenant scenario: one OX-Block
// device is carved into per-tenant NVMe-style namespaces (disjoint LPN
// partitions), and every tenant drives its own queue pair closed-loop
// at a fixed depth. With the default symmetric load and all-medium
// classes, deterministic arbitration hands every tenant near-identical
// throughput and tail latency — the "millions of users" sharing story
// in miniature. Classes and LoadFactors turn it into the asymmetric
// QoS scenario: tenants declare WRR arbitration classes and unequal
// load, and the isolation metric compares each tenant's shared-run p99
// against its solo-run p99.
type TenantsConfig struct {
	// Tenants is the number of namespaces/queue pairs.
	Tenants int
	// Depth is each tenant's queue depth.
	Depth int
	// OpsPerTenant is the measured command count per tenant (scaled by
	// that tenant's LoadFactor).
	OpsPerTenant int
	// TxnPages sizes each command in 4 KB pages.
	TxnPages int
	// PagesPerTenant sizes each tenant's partition.
	PagesPerTenant int64
	Seed           int64
	// Classes are per-tenant WRR arbitration classes; nil means all
	// medium (the symmetric default).
	Classes []hostif.Class
	// LoadFactors multiply OpsPerTenant per tenant; nil means 1 each.
	LoadFactors []int
	// Executor/Workers select the host's command-service engine
	// (results are identical for either engine).
	Executor hostif.ExecutorKind
	Workers  int
}

// DefaultTenants returns the symmetric default scenario.
func DefaultTenants() TenantsConfig {
	return TenantsConfig{
		Tenants:        4,
		Depth:          4,
		OpsPerTenant:   1200,
		TxnPages:       32,
		PagesPerTenant: 8192,
		Seed:           23,
	}
}

// DefaultTenantsQoS returns the asymmetric scenario: a high-class
// tenant pushing 4× load, two medium tenants, and a low-class batch
// tenant, all sharing one device under WRR arbitration.
func DefaultTenantsQoS() TenantsConfig {
	cfg := DefaultTenants()
	cfg.Classes = []hostif.Class{hostif.ClassHigh, hostif.ClassMedium, hostif.ClassMedium, hostif.ClassLow}
	cfg.LoadFactors = []int{4, 2, 1, 1}
	return cfg
}

// TenantPoint is one tenant's results.
type TenantPoint struct {
	Tenant  int
	Class   hostif.Class
	Ops     int
	KIOPS   float64
	Lat     *metrics.Histogram
	Elapsed vclock.Duration
	// SoloP99 is the tenant's p99 when running alone on the device
	// (TenantsQoS isolation baseline; zero when not measured).
	SoloP99 vclock.Duration
}

func (cfg TenantsConfig) class(i int) hostif.Class {
	if i < len(cfg.Classes) {
		return cfg.Classes[i]
	}
	return hostif.ClassMedium
}

func (cfg TenantsConfig) ops(i int) int {
	if i < len(cfg.LoadFactors) && cfg.LoadFactors[i] > 0 {
		return cfg.OpsPerTenant * cfg.LoadFactors[i]
	}
	return cfg.OpsPerTenant
}

// Tenants runs the shared scenario and returns one point per tenant.
func Tenants(cfg TenantsConfig) ([]TenantPoint, error) {
	return tenantsRun(cfg, nil)
}

// TenantsQoS runs the shared scenario plus one solo run per tenant —
// the same tenant workload with every other tenant silent — and fills
// each point's SoloP99, the denominator of the isolation metric.
func TenantsQoS(cfg TenantsConfig) ([]TenantPoint, error) {
	shared, err := tenantsRun(cfg, nil)
	if err != nil {
		return nil, err
	}
	for i := range shared {
		only := make([]bool, cfg.Tenants)
		only[i] = true
		solo, err := tenantsRun(cfg, only)
		if err != nil {
			return nil, fmt.Errorf("solo tenant %d: %w", i, err)
		}
		shared[i].SoloP99 = solo[i].Lat.Percentile(99)
	}
	return shared, nil
}

// tenantsRun executes the scenario. active selects which tenants issue
// traffic (nil = all); the device and namespace layout is always built
// in full, so a solo run differs from the shared run only in traffic.
func tenantsRun(cfg TenantsConfig, active []bool) ([]TenantPoint, error) {
	isActive := func(i int) bool { return active == nil || active[i] }
	rigCfg := DefaultRig()
	rigCfg.Seed = cfg.Seed
	_, ctrl, err := rigCfg.Build()
	if err != nil {
		return nil, err
	}
	logical := int64(cfg.Tenants) * cfg.PagesPerTenant
	d, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: logical}, 0)
	if err != nil {
		return nil, err
	}
	host := hostif.NewHost(ctrl, hostConfig(hostif.HostConfig{ChargeHostLink: true}, cfg.Executor, cfg.Workers))
	defer host.Close()
	admin := host.Admin()

	type tenant struct {
		nsid   int
		qp     *hostif.QueuePair
		draw   func(*hostif.Command)
		issued int
		ops    int
		point  TenantPoint
	}
	data := make([]byte, cfg.TxnPages*4096)
	tenants := make([]*tenant, cfg.Tenants)
	for i := range tenants {
		ns, err := hostif.NewBlockPartition(d, int64(i)*cfg.PagesPerTenant, cfg.PagesPerTenant)
		if err != nil {
			return nil, err
		}
		nsid, err := admin.AttachNamespace(now, ns)
		if err != nil {
			return nil, err
		}
		qp, err := admin.CreateIOQueuePair(now, cfg.Depth, cfg.class(i))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*101))
		tenants[i] = &tenant{
			nsid: nsid,
			qp:   qp,
			draw: mixedDraw(rng, nsid, cfg.PagesPerTenant, cfg.TxnPages, cfg.TxnPages, data),
			ops:  cfg.ops(i),
			point: TenantPoint{
				Tenant: i,
				Class:  cfg.class(i),
				Ops:    cfg.ops(i),
				Lat:    metrics.NewHistogram(),
			},
		}
	}

	// Prefill every active partition sequentially so reads hit mapped
	// pages.
	total := 0
	for i, tn := range tenants {
		if !isActive(i) {
			continue
		}
		if now, err = prefillBlock(tn.qp, tn.nsid, cfg.PagesPerTenant, cfg.TxnPages, data, now); err != nil {
			return nil, err
		}
		total += tn.ops
	}

	// Measured phase: all active tenants start together; each keeps
	// Depth mixed read/write commands in flight inside its own
	// namespace.
	start := now
	for i, tn := range tenants {
		if !isActive(i) {
			continue
		}
		for j := 0; j < cfg.Depth && tn.issued < tn.ops; j++ {
			cmd := tn.qp.AcquireCommand()
			tn.draw(cmd)
			if _, err := tn.qp.Submit(cmd); err != nil {
				return nil, err
			}
			tn.issued++
		}
		tn.qp.Ring(start)
	}
	qid0 := tenants[0].qp.ID() // I/O queue IDs start after the admin queue
	err = reapLoop(host, "tenants", total, func(comp hostif.Completion) error {
		tn := tenants[comp.QueueID-qid0]
		tn.point.Lat.Observe(comp.Latency())
		if end := comp.Done.Sub(start); end > tn.point.Elapsed {
			tn.point.Elapsed = end
		}
		if tn.issued < tn.ops {
			cmd := tn.qp.AcquireCommand() // recycled by the reap above
			tn.draw(cmd)
			if err := tn.qp.Push(comp.Done, cmd); err != nil {
				return err
			}
			tn.issued++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]TenantPoint, cfg.Tenants)
	for i, tn := range tenants {
		if tn.point.Elapsed > 0 {
			tn.point.KIOPS = float64(tn.ops) / tn.point.Elapsed.Seconds() / 1000
		}
		out[i] = tn.point
	}
	return out, nil
}

// TenantsTable renders per-tenant throughput and latency percentiles
// for the symmetric scenario.
func TenantsTable(points []TenantPoint) *Table {
	t := &Table{
		Title:   "Multi-tenant namespaces: per-tenant throughput and latency (shared OX-Block device)",
		Headers: []string{"tenant", "ops", "kIOPS", "p50", "p95", "p99"},
	}
	for _, p := range points {
		cells := []any{p.Tenant, p.Ops, fmt.Sprintf("%.1f", p.KIOPS)}
		for _, s := range metrics.LatencyRow(p.Lat) {
			cells = append(cells, s)
		}
		t.Add(cells...)
	}
	return t
}

// TenantsQoSTable renders the asymmetric scenario: WRR class and load
// per tenant, shared-run percentiles, and the isolation metric —
// shared p99 over solo p99 (1.00× means perfect isolation).
func TenantsQoSTable(points []TenantPoint) *Table {
	t := &Table{
		Title: "Multi-tenant QoS: asymmetric load under WRR arbitration (shared p99 vs solo p99)",
		Headers: []string{"tenant", "class", "ops", "kIOPS",
			"p50", "p95", "p99", "solo p99", "iso"},
	}
	for _, p := range points {
		cells := []any{p.Tenant, p.Class.String(), p.Ops, fmt.Sprintf("%.1f", p.KIOPS)}
		for _, s := range metrics.LatencyRow(p.Lat) {
			cells = append(cells, s)
		}
		iso := "-"
		if p.SoloP99 > 0 {
			iso = fmt.Sprintf("%.2fx", p.Lat.Percentile(99).Seconds()/p.SoloP99.Seconds())
		}
		cells = append(cells, p.SoloP99.String(), iso)
		t.Add(cells...)
	}
	return t
}
