package tft

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/tftproject/tft/internal/analysis"
	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/dataset"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/population"
)

// ErrUnknownExperiment is wrapped by RunExperiment when the requested name
// matches no registered experiment or alias. Callers can errors.Is against
// it to distinguish a bad name from a failed run.
var ErrUnknownExperiment = errors.New("unknown experiment")

// experimentInfo is the untyped part of a registry row: the canonical name
// (which is also Run.Name() and the dataset file stem), accepted aliases,
// and the one-line summary CLIs print in usage listings.
type experimentInfo struct {
	name    string
	aliases []string
	desc    string
}

// experiment is one row of the experiment registry: everything
// runExperiment and ExperimentRun need to know about one experiment, typed
// by its dataset D and analysis A. Adding an experiment is adding a row.
type experiment[D crawlDataset, A tableSet] struct {
	experimentInfo
	// build constructs the experiment's calibrated world.
	build func(seed uint64, scale float64) (*population.World, error)
	// driver wires the core driver to a built world under the run's seed
	// and crawl configuration.
	driver func(w *population.World, o Options) crawlDriver[D]
	// analyze reduces the dataset to the aggregates behind A's tables.
	analyze func(cfg analysis.Config, reg *geo.Registry, ds D) A
	// headline is the CLI summary above the tables, without the
	// error-budget line ExperimentRun.Headline appends.
	headline func(a A, ds D) string
	// overview is the run's Table-2 coverage row.
	overview func(a A, ds D) analysis.DatasetOverview
	// write serializes the dataset in the release format; read is its
	// inverse.
	write func(w io.Writer, seed uint64, scale float64, ds D) error
	read  func(r io.Reader) (*dataset.Header, D, error)
}

// crawlDriver is a core experiment driver, ready to run.
type crawlDriver[D any] interface {
	Run(ctx context.Context) (D, error)
}

// registeredExperiment is the view of a row that does not depend on its
// type parameters — what the registry slice holds.
type registeredExperiment interface {
	info() experimentInfo
	run(ctx context.Context, opts Options) (Run, error)
	load(dir string) (Run, error)
}

func (e *experiment[D, A]) info() experimentInfo { return e.experimentInfo }

func (e *experiment[D, A]) run(ctx context.Context, opts Options) (Run, error) {
	r, err := runExperiment(ctx, e, opts)
	if err != nil {
		return nil, err // not r: a typed nil must not escape into the interface
	}
	return r, nil
}

// experimentRegistry lists the paper's experiments in paper order. The
// longitudinal campaign is not registered: it returns waves, not a Run.
var experimentRegistry = []registeredExperiment{
	dnsExperiment, httpExperiment, tlsExperiment, monitorExperiment, smtpExperiment,
}

// dnsDriver is the DNS row's driver constructor, named because
// RunLongitudinal crawls with it too.
func dnsDriver(w *population.World, o Options) *core.DNSExperiment {
	return &core.DNSExperiment{
		Client: w.Client, Auth: w.Auth, Web: w.Web, Geo: w.Geo,
		Zone: population.Zone, Weights: w.Pool.CountryCounts(),
		Seed: o.Seed, Crawl: o.Crawl,
	}
}

var dnsExperiment = &experiment[*core.DNSDataset, *analysis.DNSAnalysis]{
	experimentInfo: experimentInfo{name: "dns", desc: "§4 DNS proxying and hijacking (d1/d2 gate)"},
	build:          population.BuildDNSWorld,
	driver: func(w *population.World, o Options) crawlDriver[*core.DNSDataset] {
		return dnsDriver(w, o)
	},
	analyze: analysis.AnalyzeDNS,
	headline: func(a *analysis.DNSAnalysis, _ *core.DNSDataset) string {
		s := a.Summary()
		rs := a.ResolverStats()
		return fmt.Sprintf("== DNS (§4): %d nodes measured (%d filtered shared-anycast), %d resolvers, %d countries, %d ASes\n"+
			"   servers: %d total, %d above threshold; ISP-provided %d (%d above threshold, %d hijacking)\n"+
			"   hijacked: %d (%.1f%%); attribution: %v\n",
			s.MeasuredNodes, s.FilteredAnycast, s.UniqueResolvers, s.Countries, s.ASes,
			rs.TotalServers, rs.AboveThreshold, rs.ISPServers, rs.ISPAboveThreshold, rs.HijackingISP,
			s.Hijacked, s.HijackPct, s.Attribution)
	},
	overview: func(a *analysis.DNSAnalysis, _ *core.DNSDataset) analysis.DatasetOverview {
		s := a.Summary()
		return analysis.DatasetOverview{Name: "DNS",
			Nodes: s.MeasuredNodes + s.FilteredAnycast, ASes: s.ASes, Countries: s.Countries}
	},
	write: dataset.WriteDNS,
	read:  dataset.ReadDNS,
}

var httpExperiment = &experiment[*core.HTTPDataset, *analysis.HTTPAnalysis]{
	experimentInfo: experimentInfo{name: "http", desc: "§5 HTTP object manipulation"},
	build:          population.BuildHTTPWorld,
	driver: func(w *population.World, o Options) crawlDriver[*core.HTTPDataset] {
		return &core.HTTPExperiment{
			Client: w.Client, Auth: w.Auth, Web: w.Web, Geo: w.Geo,
			Zone: population.Zone, Weights: w.Pool.CountryCounts(),
			Seed: o.Seed, Crawl: o.Crawl,
		}
	},
	analyze: analysis.AnalyzeHTTP,
	headline: func(a *analysis.HTTPAnalysis, ds *core.HTTPDataset) string {
		s := a.Summary()
		return fmt.Sprintf("== HTTP (§5): %d nodes, %d ASes, %d countries; crawl skipped %d by AS quota\n"+
			"   HTML modified %d (injected %d, block pages %d), images %d, JS %d, CSS %d\n",
			s.MeasuredNodes, s.ASes, s.Countries, ds.Discarded,
			s.HTMLModified, s.HTMLInjected, s.HTMLBlockPage, s.ImageModified, s.JSReplaced, s.CSSReplaced)
	},
	overview: func(a *analysis.HTTPAnalysis, _ *core.HTTPDataset) analysis.DatasetOverview {
		s := a.Summary()
		return analysis.DatasetOverview{Name: "HTTP",
			Nodes: s.MeasuredNodes, ASes: s.ASes, Countries: s.Countries}
	},
	write: dataset.WriteHTTP,
	read:  dataset.ReadHTTP,
}

var tlsExperiment = &experiment[*core.TLSDataset, *analysis.TLSAnalysis]{
	experimentInfo: experimentInfo{name: "tls", aliases: []string{"https"},
		desc: "§6 TLS certificate replacement (alias: https)"},
	build: population.BuildTLSWorld,
	driver: func(w *population.World, o Options) crawlDriver[*core.TLSDataset] {
		return &core.TLSExperiment{
			Client: w.Client, Geo: w.Geo, Trust: w.Trust,
			Sites:   w.Sites,
			Weights: w.Pool.CountryCounts(),
			Seed:    o.Seed, Crawl: o.Crawl,
			Now: w.Clock.Now,
		}
	},
	analyze: analysis.AnalyzeTLS,
	headline: func(a *analysis.TLSAnalysis, ds *core.TLSDataset) string {
		s := a.Summary()
		return fmt.Sprintf("== HTTPS (§6): %d nodes, %d ASes, %d countries; %d CONNECT tunnels\n"+
			"   replaced certificates on %d nodes (%.2f%%); selective on %d; ASes >10%% affected: %.1f%%\n",
			s.MeasuredNodes, s.ASes, s.Countries, ds.Probes,
			s.Affected, s.AffectedPct, s.SelectiveNodes, s.HighASShare)
	},
	overview: func(a *analysis.TLSAnalysis, _ *core.TLSDataset) analysis.DatasetOverview {
		s := a.Summary()
		return analysis.DatasetOverview{Name: "HTTPS",
			Nodes: s.MeasuredNodes, ASes: s.ASes, Countries: s.Countries}
	},
	write: dataset.WriteTLS,
	read:  dataset.ReadTLS,
}

var monitorExperiment = &experiment[*core.MonDataset, *analysis.MonAnalysis]{
	experimentInfo: experimentInfo{name: "monitor", aliases: []string{"monitoring"},
		desc: "§7 traffic monitoring (alias: monitoring)"},
	build: population.BuildMonitorWorld,
	driver: func(w *population.World, o Options) crawlDriver[*core.MonDataset] {
		return &core.MonitorExperiment{
			Client: w.Client, Auth: w.Auth, Web: w.Web, Geo: w.Geo, Clock: w.Clock,
			Zone: population.Zone, Weights: w.Pool.CountryCounts(),
			Seed: o.Seed, Crawl: o.Crawl,
		}
	},
	analyze: analysis.AnalyzeMonitor,
	headline: func(a *analysis.MonAnalysis, _ *core.MonDataset) string {
		s := a.Summary()
		return fmt.Sprintf("== Monitoring (§7): %d nodes; monitored %d (%.2f%%) by %d IPs in %d AS groups\n",
			s.MeasuredNodes, s.Monitored, s.MonitoredPct, s.UniqueIPs, s.ASGroups)
	},
	overview: func(a *analysis.MonAnalysis, ds *core.MonDataset) analysis.DatasetOverview {
		countries, ases := coverage(ds.Observations,
			func(o *core.MonObservation) (geo.CountryCode, geo.ASN) { return o.Country, o.ASN })
		return analysis.DatasetOverview{Name: "Monitoring",
			Nodes: a.Summary().MeasuredNodes, ASes: ases, Countries: countries}
	},
	write: dataset.WriteMonitor,
	read:  dataset.ReadMonitor,
}

var smtpExperiment = &experiment[*core.SMTPDataset, *analysis.SMTPAnalysis]{
	experimentInfo: experimentInfo{name: "smtp",
		desc: "§3.4 extension: port-25 blocking and STARTTLS stripping"},
	build: population.BuildSMTPWorld,
	driver: func(w *population.World, o Options) crawlDriver[*core.SMTPDataset] {
		return &core.SMTPExperiment{
			Client: w.Client, Geo: w.Geo, Weights: w.Pool.CountryCounts(),
			Seed: o.Seed, Crawl: o.Crawl,
			MailIP: population.MailIP, MailHost: population.MailHost,
		}
	},
	analyze: analysis.AnalyzeSMTP,
	headline: func(a *analysis.SMTPAnalysis, _ *core.SMTPDataset) string {
		s := a.Summary()
		return fmt.Sprintf("== SMTP extension (§3.4 future work): %d nodes probed through an any-port tunnel\n"+
			"   port 25 blocked: %d (%.1f%%); STARTTLS stripped: %d (%.2f%%) in %d ASes\n",
			s.MeasuredNodes, s.Blocked, s.BlockedPct, s.Stripped, s.StrippedPct, s.StripperASes)
	},
	overview: func(a *analysis.SMTPAnalysis, ds *core.SMTPDataset) analysis.DatasetOverview {
		countries, ases := coverage(ds.Observations,
			func(o *core.SMTPObservation) (geo.CountryCode, geo.ASN) { return o.Country, o.ASN })
		return analysis.DatasetOverview{Name: "SMTP",
			Nodes: a.Summary().MeasuredNodes, ASes: ases, Countries: countries}
	},
	write: dataset.WriteSMTP,
	read:  dataset.ReadSMTP,
}

// coverage counts the distinct countries and ASes a dataset's records span
// — the Table-2 columns for experiments whose analysis does not already
// tally them.
func coverage[T any](obs []T, where func(T) (geo.CountryCode, geo.ASN)) (countries, ases int) {
	cset := map[geo.CountryCode]bool{}
	aset := map[geo.ASN]bool{}
	for _, o := range obs {
		cc, asn := where(o)
		cset[cc] = true
		aset[asn] = true
	}
	return len(cset), len(aset)
}

// lookupExperiment resolves a canonical name or alias to its row.
func lookupExperiment(name string) (registeredExperiment, bool) {
	for _, e := range experimentRegistry {
		if info := e.info(); info.name == name || slices.Contains(info.aliases, name) {
			return e, true
		}
	}
	return nil, false
}

// Experiments returns the canonical names of every registered experiment
// in paper order — the valid inputs to RunExperiment (aliases resolve too).
func Experiments() []string {
	names := make([]string, 0, len(experimentRegistry))
	for _, e := range experimentRegistry {
		names = append(names, e.info().name)
	}
	return names
}

// DescribeExperiment returns the one-line summary for a registered
// experiment name or alias, or "" when unknown. CLIs build their usage
// listings from this so the text cannot drift from the registry.
func DescribeExperiment(name string) string {
	e, ok := lookupExperiment(name)
	if !ok {
		return ""
	}
	return e.info().desc
}

// RunExperiment builds the named experiment's world and runs it, accepting
// canonical names and aliases. Unknown names wrap ErrUnknownExperiment.
func RunExperiment(ctx context.Context, name string, opts Options) (Run, error) {
	e, ok := lookupExperiment(name)
	if !ok {
		return nil, fmt.Errorf("%w %q (valid: %s)", ErrUnknownExperiment, name,
			strings.Join(Experiments(), ", "))
	}
	return e.run(ctx, opts)
}
