//! Every wire format of the cluster API, in one place.
//!
//! `un-domain` hands out typed values (`LinkReport`,
//! `ConservationReport`, `AvailabilityReport`, `VerifyReport`, events,
//! packet traces, …); this module turns them into the JSON documents
//! and the Prometheus exposition text the routes in [`crate::cluster`]
//! serve, and parses the two request-side formats (the
//! `/domain/events` query string, the `/domain/trace` probe spec).
//! `cluster.rs` only routes and picks status codes.

use std::collections::BTreeMap;
use std::fmt::Write;

use un_domain::{Domain, DomainReport, LinkReport, ProbeSpec, RepairKind, ReplacementReport};
use un_nffg::Json;
use un_obs::{escape_label as esc, AttrValue, Event, PacketTrace};

/// A JSON array with one `doc(item)` per item.
fn arr<T>(items: impl IntoIterator<Item = T>, doc: impl FnMut(T) -> Json) -> Json {
    Json::Arr(items.into_iter().map(doc).collect())
}

/// A JSON array of strings.
fn str_arr<'a>(items: impl IntoIterator<Item = &'a String>) -> Json {
    arr(items, |s| Json::from(s.as_str()))
}

// ----------------------------------------------------------------------
// GET /metrics
// ----------------------------------------------------------------------

/// One per-link counter family: `family{vid,graph} value(link)`.
fn link_totals(
    out: &mut String,
    family: &str,
    links: &[LinkReport],
    value: impl Fn(&LinkReport) -> u64,
) {
    let _ = writeln!(out, "# TYPE {family} counter");
    for l in links {
        let _ = writeln!(
            out,
            "{family}{{vid=\"{}\",graph=\"{}\"}} {}",
            l.vid,
            esc(&l.graph),
            value(l)
        );
    }
}

/// One per-hop counter family: a sample per hop `path[i] → path[i+1]`
/// of every link.
fn link_hops(
    out: &mut String,
    family: &str,
    links: &[LinkReport],
    hops: impl Fn(&LinkReport) -> &Vec<u64>,
) {
    let _ = writeln!(out, "# TYPE {family} counter");
    for l in links {
        for (i, v) in hops(l).iter().enumerate() {
            let from = l.path.get(i).map(String::as_str).unwrap_or("?");
            let to = l.path.get(i + 1).map(String::as_str).unwrap_or("?");
            let _ = writeln!(
                out,
                "{family}{{vid=\"{}\",graph=\"{}\",hop=\"{i}\",from=\"{}\",to=\"{}\"}} {v}",
                l.vid,
                esc(&l.graph),
                esc(from),
                esc(to)
            );
        }
    }
}

/// Every metric — scraped live state (classifier counters, table
/// occupancy, per-hop link counters, trace counters, the conservation
/// ledger) plus the observability registry's hot-path histograms and
/// span durations — in Prometheus text exposition format. Always
/// available; the registry section is empty when
/// `DomainConfig::observability` is off.
///
/// Each family's samples form one contiguous group under its `# TYPE`
/// line, as the exposition format requires: one loop per family.
pub fn metrics(domain: &Domain) -> String {
    let mut out = String::with_capacity(4096);
    let names = domain.node_names();
    let nodes = || {
        names
            .iter()
            .filter_map(|name| Some((name.as_str(), domain.node(name)?)))
    };

    // -- classifier stage outcomes + table occupancy + node health
    let _ = writeln!(out, "# TYPE un_classifier_lookups_total counter");
    for (name, node) in nodes() {
        let s = node.flow_cache_stats();
        for (path, v) in [
            ("cache_hit", s.cache_hits),
            ("cache_miss", s.cache_misses),
            ("exact_hit", s.exact_hits),
            ("megaflow_hit", s.megaflow_hits),
            ("wildcard_hit", s.wildcard_hits),
            ("miss", s.misses),
        ] {
            let _ = writeln!(
                out,
                "un_classifier_lookups_total{{node=\"{}\",path=\"{path}\"}} {v}",
                esc(name)
            );
        }
    }
    let _ = writeln!(out, "# TYPE un_classifier_cache_entries gauge");
    for (name, node) in nodes() {
        let _ = writeln!(
            out,
            "un_classifier_cache_entries{{node=\"{}\"}} {}",
            esc(name),
            node.flow_cache_entries()
        );
    }
    let _ = writeln!(out, "# TYPE un_flow_table_entries gauge");
    for (name, node) in nodes() {
        let _ = writeln!(
            out,
            "un_flow_table_entries{{node=\"{}\"}} {}",
            esc(name),
            node.flow_table_occupancy()
        );
    }
    let _ = writeln!(out, "# TYPE un_node_serving gauge");
    for name in &names {
        let serving = domain.health(name).is_some_and(|h| h.is_serving());
        let _ = writeln!(
            out,
            "un_node_serving{{node=\"{}\"}} {}",
            esc(name),
            u8::from(serving)
        );
    }

    // -- per-link wire counters, totals and per hop
    let links = domain.link_reports();
    link_totals(&mut out, "un_link_frames_total", &links, |l| l.packets);
    link_totals(&mut out, "un_link_bytes_total", &links, |l| l.bytes);
    link_hops(&mut out, "un_link_hop_frames_total", &links, |l| {
        &l.hop_packets
    });
    link_hops(&mut out, "un_link_hop_bytes_total", &links, |l| {
        &l.hop_bytes
    });

    // -- trace counters, and the frame ledger's terms under their names
    let _ = writeln!(out, "# TYPE un_domain_events_total counter");
    let ledger = domain.frame_ledger().counters();
    let events: BTreeMap<_, _> = domain.trace.counters().chain(ledger).collect();
    for (event, n) in events {
        let _ = writeln!(
            out,
            "un_domain_events_total{{event=\"{}\"}} {n}",
            esc(event)
        );
    }
    let _ = writeln!(out, "# TYPE un_node_events_total counter");
    for (name, node) in nodes() {
        let ledger = node.frame_ledger().counters();
        let events: BTreeMap<_, _> = node.trace.counters().chain(ledger).collect();
        for (event, n) in events {
            let _ = writeln!(
                out,
                "un_node_events_total{{node=\"{}\",event=\"{}\"}} {n}",
                esc(name),
                esc(event)
            );
        }
    }

    // -- conservation ledger
    let ledger = domain.conservation_report();
    let _ = writeln!(out, "# TYPE un_conservation_frames_total counter");
    for (term, v) in [
        ("ingress", ledger.ingress),
        ("egress", ledger.egress),
        ("fanout_extra", ledger.fanout_extra),
        ("absorbed", ledger.absorbed),
        ("dropped", ledger.dropped()),
    ] {
        let _ = writeln!(out, "un_conservation_frames_total{{term=\"{term}\"}} {v}");
    }
    let _ = writeln!(out, "# TYPE un_conservation_balanced gauge");
    let _ = writeln!(
        out,
        "un_conservation_balanced {}",
        u8::from(ledger.balanced())
    );

    // -- event-ring overflow: events evicted from the bounded
    //    recent-event ring since the domain came up
    let _ = writeln!(out, "# TYPE un_events_dropped_total counter");
    let _ = writeln!(
        out,
        "un_events_dropped_total {}",
        domain.obs().events().dropped()
    );

    // -- hot-path histograms + span durations from the registry
    domain.obs().registry().render_prometheus(&mut out);
    out
}

// ----------------------------------------------------------------------
// GET /domain/events
// ----------------------------------------------------------------------

/// The `GET /domain/events` query filters: `since` keeps events
/// strictly newer than the given epoch offset (ns), `kind` keeps one
/// event kind (`"event"` / `"span"`), and `limit` bounds the page to
/// the **newest** N matches.
#[derive(Debug, Default)]
pub struct EventQuery<'a> {
    since: Option<u64>,
    kind: Option<&'a str>,
    limit: Option<usize>,
}

impl<'a> EventQuery<'a> {
    /// Parse the route's query pairs; the error is the 400 message.
    pub fn parse(query: &[(&'a str, &'a str)]) -> Result<Self, String> {
        let mut q = EventQuery::default();
        for (k, v) in query {
            match *k {
                "since" => {
                    q.since = Some(
                        v.parse()
                            .map_err(|_| format!("bad 'since' value '{v}' (want ns offset)"))?,
                    )
                }
                "kind" => q.kind = Some(*v),
                "limit" => {
                    q.limit = Some(
                        v.parse()
                            .map_err(|_| format!("bad 'limit' value '{v}' (want a count)"))?,
                    )
                }
                other => return Err(format!("unknown query parameter '{other}'")),
            }
        }
        Ok(q)
    }
}

fn event(ev: Event) -> Json {
    let mut attrs = Json::obj();
    for (k, v) in ev.attrs {
        attrs = match v {
            AttrValue::Str(s) => attrs.set(k, s),
            AttrValue::U64(n) => attrs.set(k, n),
            AttrValue::I64(n) => attrs.set(k, n as f64),
            AttrValue::F64(f) => attrs.set(k, f),
            AttrValue::Bool(b) => attrs.set(k, b),
        };
    }
    let mut doc = Json::obj()
        .set("at-ns", ev.at_ns)
        .set("kind", ev.kind)
        .set("name", ev.name)
        .set("attributes", attrs);
    if let Some(d) = ev.duration_ns {
        doc = doc.set("duration-ns", d);
    }
    doc
}

/// The recent-event ring with `query` applied. The `matched` field
/// counts matches before pagination so a client can tell a short tail
/// from a short ring.
pub fn events(domain: &Domain, query: &EventQuery<'_>) -> Json {
    let mut matching: Vec<Event> = domain
        .recent_events()
        .into_iter()
        .filter(|ev| query.since.is_none_or(|s| ev.at_ns > s))
        .filter(|ev| query.kind.is_none_or(|k| ev.kind == k))
        .collect();
    let matched = matching.len();
    if let Some(n) = query.limit {
        // Newest N: the ring is oldest-first, so trim the front.
        if matching.len() > n {
            matching.drain(..matching.len() - n);
        }
    }
    Json::obj()
        .set("enabled", domain.obs().is_enabled())
        .set("dropped", domain.obs().events().dropped())
        .set("matched", matched as u64)
        .set("events", arr(matching, event))
}

// ----------------------------------------------------------------------
// POST /domain/trace, GET /domain/traces
// ----------------------------------------------------------------------

/// Parse a `POST /domain/trace` body into `(node, port, spec)`; the
/// error is the 400 message.
pub fn probe_request(body: &[u8]) -> Result<(String, String, ProbeSpec), String> {
    let doc = un_nffg::jsonval::parse(&String::from_utf8_lossy(body))
        .map_err(|e| format!("bad probe spec: {e}"))?;
    let (Ok(node), Ok(port)) = (doc.req_str("node"), doc.req_str("port")) else {
        return Err("probe spec needs 'node' and 'port'".to_string());
    };
    let mut spec = ProbeSpec::default();
    if let Some(n) = doc.get("payload-len").and_then(Json::as_u64) {
        spec.payload_len = n as usize;
    }
    if let Some(n) = doc.get("src-port").and_then(Json::as_u64) {
        spec.src_port = n as u16;
    }
    if let Some(n) = doc.get("dst-port").and_then(Json::as_u64) {
        spec.dst_port = n as u16;
    }
    if let Some(n) = doc.get("vlan").and_then(Json::as_u64) {
        spec.vlan = Some(n as u16);
    }
    for (key, slot) in [("src-ip", &mut spec.src_ip), ("dst-ip", &mut spec.dst_ip)] {
        if let Some(s) = doc.get(key).and_then(Json::as_str) {
            *slot = s.parse().map_err(|_| format!("bad '{key}' value '{s}'"))?;
        }
    }
    Ok((node, port, spec))
}

/// One packet trace (shared by `POST /domain/trace`, `GET
/// /domain/traces` and the verifier's witnesses).
pub fn trace(trace: &PacketTrace) -> Json {
    let drops = arr(trace.drops(), |r| Json::from(r.as_str()));
    Json::obj()
        .set("origin-node", trace.origin_node.clone())
        .set("origin-port", trace.origin_port.clone())
        .set("ghost", trace.ghost)
        .set("hops", trace.hops.len() as u64)
        .set("egress", trace.egress_count() as u64)
        .set("drops", drops)
        .set("rendered", trace.render())
}

/// The flight recorder's recent-trace ring: per trace the origin, hop
/// count, drop reasons and the rendered walk.
pub fn traces(domain: &Domain) -> Json {
    Json::obj()
        .set("capacity", un_obs::DEFAULT_TRACE_CAPACITY as u64)
        .set("traces", arr(&domain.recent_traces(), trace))
}

// ----------------------------------------------------------------------
// GET /domain/verify
// ----------------------------------------------------------------------

/// Run [`Domain::verify`] and render its report.
pub fn verify(domain: &Domain) -> Json {
    let report = domain.verify();
    let violations = arr(&report.violations, |v| {
        let mut doc = Json::obj().set("code", v.code);
        if let Some(g) = &v.graph {
            doc = doc.set("graph", g.clone());
        }
        if let Some(n) = &v.node {
            doc = doc.set("node", n.clone());
        }
        if let Some(w) = &v.witness {
            doc = doc.set("witness", trace(w));
        }
        doc.set("detail", v.detail.clone())
    });
    Json::obj()
        .set("ok", report.ok())
        .set("mode", report.mode)
        .set("graphs-checked", report.graphs_checked)
        .set("graphs-reused", report.graphs_reused)
        .set("nodes-checked", report.nodes_checked)
        .set("nodes-reused", report.nodes_reused)
        .set("rules-checked", report.stats.rules_checked)
        .set("rules-lowered", report.rules_lowered)
        .set("classes", report.stats.classes)
        .set("duration-ns", report.duration_ns)
        .set("violations", violations)
}

// ----------------------------------------------------------------------
// GET /domain, /domain/nodes, /domain/topology, /domain/shared,
// /domain/availability
// ----------------------------------------------------------------------

/// The domain's self-description: fleet, graphs, links, pending.
pub fn domain(domain: &Domain) -> Json {
    let names = domain.node_names();
    let nodes = names.iter().filter_map(|name| {
        let node = domain.node(name)?;
        let health = domain.health(name)?;
        let cache = node.flow_cache_stats();
        Some(
            Json::obj()
                .set("name", name.as_str())
                .set("alive", health.is_serving())
                .set("health", health.as_str())
                .set("memory_used", node.memory_used())
                .set("memory_capacity", node.mem_capacity())
                .set("flow_cache_hits", cache.cache_hits)
                .set("flow_cache_misses", cache.cache_misses)
                .set("graphs", str_arr(&node.graph_ids())),
        )
    });
    let ids = domain.graph_ids();
    let graphs = ids.iter().filter_map(|id| {
        let partition = domain.partition_of(id)?;
        let leases = domain.graph_shared_leases(id)?;
        let leases = arr(&leases, |(key, claim)| {
            Json::obj()
                .set("type", key.functional_type.as_str())
                .set("capability", key.capability.as_str())
                .set("host", claim.host.as_str())
                .set("nfs", claim.nfs)
        });
        Some(
            Json::obj()
                .set("id", id.as_str())
                .set("nodes", str_arr(partition.parts.keys()))
                .set("overlay_links", partition.links.len())
                .set("shared-leases", leases),
        )
    });
    let links = arr(&domain.link_reports(), |l| {
        Json::obj()
            .set("vid", l.vid)
            .set("graph", l.graph.as_str())
            .set("from", l.from.as_str())
            .set("to", l.to.as_str())
            .set("path", str_arr(&l.path))
            .set("protected", l.protected)
            .set("packets", l.packets)
            .set("bytes", l.bytes)
    });
    Json::obj()
        .set("nodes", Json::Arr(nodes.collect()))
        .set("graphs", Json::Arr(graphs.collect()))
        .set("links", links)
        .set("pending", str_arr(&domain.pending_graphs()))
}

/// Every registered node with its health (`alive|suspect|failed`).
pub fn nodes(domain: &Domain) -> Json {
    arr(&domain.node_names(), |name| {
        let health = domain.health(name).map_or("failed", |h| h.as_str());
        Json::obj().set("name", name.as_str()).set("health", health)
    })
}

/// The fabric topology: mode, explicit edges, and the pinned path of
/// every live overlay link.
pub fn topology(domain: &Domain) -> Json {
    let topo = &domain.config.topology;
    let mode = if topo.is_full_mesh() {
        "full-mesh"
    } else {
        "explicit"
    };
    let edges = arr(topo.edge_list(), |(a, b, attrs)| {
        Json::obj()
            .set("a", a.as_str())
            .set("b", b.as_str())
            .set("latency-ns", attrs.latency_ns)
            .set("capacity-bps", attrs.capacity_bps)
    });
    let paths = arr(&domain.link_reports(), |l| {
        Json::obj()
            .set("vid", l.vid)
            .set("graph", l.graph.as_str())
            .set("path", str_arr(&l.path))
            .set("hops", l.path.len().saturating_sub(1))
    });
    Json::obj()
        .set("mode", mode)
        .set("edges", edges)
        .set("paths", paths)
}

/// The shared-NNF registry: settings plus every instance with its
/// host and tenant leases.
pub fn shared(domain: &Domain) -> Json {
    let sharing = &domain.config.sharing;
    let instances = arr(&domain.shared_instances(), |inst| {
        let leases = arr(&inst.leases, |(graph, nfs)| {
            Json::obj().set("graph", graph.as_str()).set("nfs", *nfs)
        });
        Json::obj()
            .set("type", inst.key.functional_type.as_str())
            .set("capability", inst.key.capability.as_str())
            .set("host", inst.host.as_str())
            .set("tenants", inst.tenant_count())
            .set("wires", inst.wires())
            .set("leases", leases)
    });
    Json::obj()
        .set("enabled", sharing.enabled)
        .set("election", sharing.election.name())
        .set("types", str_arr(&sharing.types))
        .set(
            "max-leases",
            sharing.max_leases.map_or(Json::Null, Json::from),
        )
        .set("instances", instances)
}

/// [`Domain::availability_report`]: modeled vs measured availability
/// per graph.
pub fn availability(domain: &Domain) -> Json {
    let r = domain.availability_report();
    let mean = |kind| r.calibration.predict(kind);
    let calibration = Json::obj()
        .set("swap-events", r.calibration.swap_events)
        .set("swap-mean-ns", mean(RepairKind::StandbySwap))
        .set("reactive-events", r.calibration.reactive_events)
        .set("reactive-mean-ns", mean(RepairKind::Reactive))
        .set("scratch-events", r.calibration.scratch_events)
        .set("scratch-mean-ns", mean(RepairKind::FromScratch));
    let graphs = arr(&r.graphs, |g| {
        Json::obj()
            .set("id", g.graph.as_str())
            .set("exposed-nodes", g.exposed_nodes)
            .set("standby-ready", g.standby_ready)
            .set("predicted-repair-ns", g.predicted_repair_ns)
            .set("predicted-reactive-ns", g.predicted_reactive_ns)
            .set("predicted-availability", g.predicted_availability)
            .set("repairs", g.ledger.repairs)
            .set("standby-promotions", g.ledger.standby_promotions)
            .set("measured-downtime-ns", g.ledger.measured_downtime_ns)
            .set("modeled-downtime-ns", g.ledger.modeled_downtime_ns)
            .set("park-events", g.ledger.park_events)
            .set("park-downtime-ns", g.ledger.park_downtime_ns)
    });
    Json::obj()
        .set("node-mtbf-ns", r.node_mtbf_ns)
        .set("repair-events", r.repair_events)
        .set("modeled-downtime-ns", r.modeled_downtime_ns)
        .set("measured-downtime-ns", r.measured_downtime_ns)
        .set("calibration", calibration)
        .set("graphs", graphs)
}

// ----------------------------------------------------------------------
// POST /domain/nodes/<n>/{fail,recover}, PUT /domain/nffg/<id>
// ----------------------------------------------------------------------

/// A failure's repair report (the blast-radius document).
pub fn repair_report(name: &str, report: &ReplacementReport) -> Json {
    let repairs = arr(&report.repairs, |r| {
        let migrated = arr(&r.shared_migrated, |(key, host)| {
            Json::obj()
                .set("instance", key.as_str())
                .set("host", host.as_str())
        });
        Json::obj()
            .set("graph", r.graph.as_str())
            .set("nfs-moved", r.nfs_moved)
            .set("nfs-preserved", r.nfs_preserved)
            .set("links-rewired", r.links_rewired)
            .set("links-kept", r.links_kept)
            .set("nodes-touched", r.nodes_touched)
            .set("full-replace", r.full_replace)
            .set("shared-nfs-moved", r.shared_nfs_moved)
            .set("standby-promoted", r.standby_promoted)
            .set("repair-duration-ns", r.repair_duration_ns)
            .set("downtime-estimate-ns", r.downtime_estimate_ns)
            .set("modeled-downtime-ns", r.modeled_downtime_ns)
            .set("shared-migrated", migrated)
    });
    Json::obj()
        .set("failed", name)
        .set("replaced", str_arr(&report.replaced))
        .set("stranded", str_arr(&report.stranded))
        .set("repairs", repairs)
}

/// What `POST /domain/nodes/<n>/recover` answers: the node and the
/// pending graphs its capacity let the domain re-deploy.
pub fn recovery(name: &str, retried: &[String]) -> Json {
    Json::obj()
        .set("recovered", name)
        .set("retried", str_arr(retried))
}

/// The deployed graph ids (`GET /domain/nffg`).
pub fn graph_ids(domain: &Domain) -> Json {
    str_arr(&domain.graph_ids())
}

/// What a deploy or update answers: per-node install receipts.
pub fn deploy_report(report: &DomainReport) -> Json {
    let nodes = arr(&report.per_node, |(node, r)| {
        Json::obj()
            .set("node", node.as_str())
            .set("flow-entries", r.flow_entries)
            .set("placements", r.placements.len())
    });
    Json::obj()
        .set("graph", report.graph.as_str())
        .set("overlay-links", report.overlay_links)
        .set("nodes", nodes)
}
