package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// budgetRow is one layer's share of a session: how often a session calls
// into it and what the layer itself costs per session, beyond the layers
// beneath it.
type budgetRow struct {
	Layer  string  `json:"layer"`
	Calls  float64 `json:"calls_per_session"`
	SelfUs float64 `json:"self_us_per_session"`
	Allocs float64 `json:"allocs_per_session"`
	Share  float64 `json:"share"`
}

// budget is "where one session's microseconds and allocations go". A row's
// self time is its p50 minus the p50 of the layers directly beneath it on
// the same class of input, times the calls a session makes. The rows are
// measured on separate single-threaded drives, so nothing forces them to
// add up: SumUs against SessionUs (the p50 of whole replayed sessions) is
// the consistency check, and Gap its size.
type budget struct {
	Rows      []budgetRow `json:"rows"`
	SumUs     float64     `json:"sum_us"`
	SessionUs float64     `json:"session_us"`
	Gap       float64     `json:"gap_share"` // |sum - session| / session
	SumAllocs float64     `json:"sum_allocs"`
	// SessionAllocs is the session drive's own allocations per session.
	SessionAllocs float64 `json:"session_allocs"`
	// CoreUs is core.self_us_per_session: the crawler's share on top of
	// the session, from the two-worker crawl rather than the drives.
	CoreUs float64 `json:"core_us"`
}

// budget builds the table and derives superproxy.self_us, the one metric
// that is a difference of drives rather than a drive.
func (lt *layerTimings) budget(exp *experiment, m map[string]float64) budget {
	us := func(ns float64) float64 { return ns / 1e3 }
	var rows []budgetRow
	add := func(layer string, calls, selfUs, allocs float64) {
		if calls == 0 {
			return // the workload never calls into this layer
		}
		rows = append(rows, budgetRow{Layer: layer, Calls: calls, SelfUs: max(selfUs, 0), Allocs: max(allocs, 0)})
	}
	dial, dialA := us(lt.dial.P50), lt.dial.Allocs
	mat, matA := us(lt.materialize.P50), lt.materialize.Allocs
	glue := us(lt.sess.glueNs)

	if n := lt.sess.calls["client.connect"]; n > 0 {
		// CONNECT stack: connect -> tunnel set-up -> dials; then the
		// handshake through the splice, and the verdict on the chain.
		connect, setup := us(lt.sess.childNs["client.connect"]), us(lt.tunnel.P50)
		direct := us(lt.certs.collect.P50)
		collects, through := lt.sess.calls["tlssim.collect"], us(lt.sess.childNs["tlssim.collect"])
		verdicts, verdict := lt.sess.calls["cert.verify"], us(lt.sess.childNs["cert.verify"])
		unmarshal := lt.certs.unmarshalNs / 1e3
		m["superproxy.self_us"] = connect - setup - mat
		add("client.session glue (close, teardown)", 1, glue, 0)
		add("proxynet.superproxy + client (CONNECT)", n, n*(connect-setup-mat), n*(lt.connect.Allocs-matA-2*dialA))
		add("population.materialize", n, n*mat, n*matA)
		add("proxynet.exit tunnel set-up", n, n*(setup-2*dial), 0)
		add("simnet dial (client leg, origin leg)", 2*n, 2*n*dial, 2*n*dialA)
		add("proxynet.exit splice relay", collects, collects*(through-(direct-dial)), 0)
		add("tlssim handshake + origin", collects, collects*(direct-dial-unmarshal), collects*(lt.certs.collect.Allocs-dialA))
		add("cert codec + verify", collects+verdicts, collects*unmarshal+verdicts*verdict, 0)
	} else {
		// GET stack, class by class: a session is a sum over its classes.
		// A layer beneath is carved out of what is left of the call that
		// contains it, so a row never exceeds its parent whatever its own
		// drive measured in isolation (Message.Marshal on its own allocates
		// its buffer; inside ResolveA it may not).
		carve := func(left *float64, part float64) float64 {
			part = min(max(part, 0), max(*left, 0))
			*left -= part
			return part
		}
		gets := lt.sess.calls["client.get"]
		codec := (lt.dns.marshalNs + lt.dns.unmarshalNs) / 1e3 * 2 // query and reply, each marshalled and parsed once
		pipe := m["simnet.pipe_mb_s_64k"]                          // MB/s is bytes per us
		var sp, spA, mats, res, resA, fet, fetA, dials, dialUs, xd, hw, dw, ring, resolves, fetches, spSelf float64
		for c, cl := range exp.classes {
			n := lt.sess.getCalls[c]
			get := us(lt.sess.getNs[c])
			var r, f float64
			if cl.remoteDNS {
				r = us(lt.resolve.class(c))
				left := r
				xd += n * carve(&left, us(lt.exchange.P50))
				dw += n * carve(&left, codec)
				res += n * left
				resA += n * (lt.resolve.Allocs - lt.exchange.Allocs - lt.dns.allocs*2)
				resolves += n
			}
			if cl.fetches {
				f = us(lt.fetch.class(c))
				left := f
				dialUs += n * carve(&left, dial)
				hw += n * carve(&left, lt.http.byClass[c]/1e3)
				if pipe > 0 {
					ring += n * carve(&left, float64(len(cl.body))/pipe)
				}
				fet += n * left
				fetA += n * (lt.fetch.Allocs - dialA - lt.http.readAllocs)
				fetches += n
				dials += n
			}
			spSelf += n * (get - dial - mat - r - f)
			left := get
			dialUs += n * carve(&left, dial)
			mats += n * carve(&left, mat)
			carve(&left, r)
			carve(&left, f)
			sp += n * left
			spA += n * lt.get.Allocs
			dials += n
		}
		spA -= gets*(dialA+matA) + resolves*lt.resolve.Allocs + fetches*lt.fetch.Allocs
		if gets > 0 {
			m["superproxy.self_us"] = spSelf / gets
		}
		add("client.session glue (log joins, compare)", 1, glue, 0)
		add("proxynet.superproxy + client (GET)", gets, sp, spA)
		add("population.materialize", gets, mats, gets*matA)
		add("proxynet.exit resolve (resolver, path)", resolves, res, resA)
		add("proxynet.exit fetch (origin, middlebox)", fetches, fet, fetA)
		add("simnet dial (client leg, origin leg)", dials, dialUs, dials*dialA)
		add("simnet ring (body bytes at pipe_mb_s_64k)", fetches, ring, 0)
		add("simnet exchange_dns", resolves, xd, resolves*lt.exchange.Allocs)
		add("httpwire codec (origin response)", fetches, hw, fetches*lt.http.readAllocs)
		add("dnswire codec", 4*resolves, dw, resolves*lt.dns.allocs*2)
	}

	b := budget{Rows: rows, SessionUs: us(lt.sess.session.P50), SessionAllocs: lt.sess.session.Allocs,
		CoreUs: m["core.self_us_per_session"]}
	for _, r := range rows {
		b.SumUs += r.SelfUs
		b.SumAllocs += r.Allocs
	}
	for i := range b.Rows {
		if b.SumUs > 0 {
			b.Rows[i].Share = b.Rows[i].SelfUs / b.SumUs
		}
	}
	sort.SliceStable(b.Rows, func(i, j int) bool { return b.Rows[i].SelfUs > b.Rows[j].SelfUs })
	if b.SessionUs > 0 {
		b.Gap = (b.SumUs - b.SessionUs) / b.SessionUs
		if b.Gap < 0 {
			b.Gap = -b.Gap
		}
	}
	return b
}

// print renders the table, top row first.
func (b budget) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "\nper-layer budget: where one %s session's us and allocs go (self = p50 minus the p50 beneath it)\n", workload)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tcalls/session\tself us\tshare\tallocs\t")
	for _, r := range b.Rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.1f\t%.1f%%\t%.0f\t\n", r.Layer, r.Calls, r.SelfUs, 100*r.Share, r.Allocs)
	}
	fmt.Fprintf(tw, "sum of rows\t\t%.1f\t\t%.0f\t\n", b.SumUs, b.SumAllocs)
	fmt.Fprintf(tw, "client.session_us (whole sessions replayed)\t\t%.1f\t\t%.0f\t\n", b.SessionUs, b.SessionAllocs)
	tw.Flush()
	fmt.Fprintf(w, "rows vs session: %.1f%% apart; core on top of the session (2-worker crawl): %.1f us\n", 100*b.Gap, b.CoreUs)
}
