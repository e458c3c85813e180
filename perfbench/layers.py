"""Per-layer metrics of one traced pass, derived from its spans.

A span named `x.y` adds its time to `x.y_s` and its count to `x.y_calls`
where the metric list has them.  Span times leave out the cost of the
argument-derived counters below them.  Times are summed over the pass's
spans, counts are exact and repeat from pass to pass, and `<layer>.self_s`
is span time minus child-span time.
Every metric is reported on every workload; a layer a workload never
enters reads 0.
"""

from __future__ import annotations

from spans import has_ancestor, layer_of, net_and_self_times

# Every per-layer metric a traced pass reports; BENCHMARK.json gives units.
PER_LAYER = (
    "cli.import_s",
    "cli.self_s",
    "cli.output_bytes",
    "matchgen.self_s",
    "matchgen.perfect_matching_polytope_s",
    "matchgen.enumerate_perfect_matchings_s",
    "matchgen.enumerate_perfect_matchings_calls",
    "polytope.self_s",
    "polytope.build_s",
    "polytope.build_calls",
    "polytope.build_checks",
    "polytope.to_json_s",
    "polytope.read_polytope_s",
    "polytope.slack_matrix_s",
    "polytope.slack_cells",
    "polytope.verify_vertices_s",
    "polytope.projection_s",
    "polytope.lp_calls",
    "exactla.self_s",
    "exactla.lp_solve_calls",
    "exactla.lp_solve_s",
    "exactla.conic_calls",
    "exactla.conic_s",
    "exactla.lp_input_cells",
    "exactla.lp_input_bits_max",
    "exactla.lp_infeasible_frac",
    "exactla.rank_calls",
    "exactla.rank_s",
    "yannakakis.self_s",
    "yannakakis.contract_s",
    "yannakakis.lp_calls",
    "yannakakis.conic_calls",
    "yannakakis.lp_per_vertex",
    "yannakakis.extend_s",
    "yannakakis.verify_factorization_calls",
    "yannakakis.verify_factorization_s",
    "bounds.self_s",
    "bounds.rank_bounds_s",
    "bounds.fooling_s",
    "bounds.cover_s",
    "bounds.cover_explored",
    "bounds.nmf_s",
    "bounds.nmf_lp_calls",
    "bounds.nmf_conic_calls",
    "bounds.nmf_conic_hit_frac",
    "bounds.alpha_s",
    "bounds.frobenius_s",
    "sepmeasure.self_s",
    "sepmeasure.ground_build_miss_s",
    "sepmeasure.ground_build_hit_s",
    "sepmeasure.cache_hits",
    "sepmeasure.cache_misses",
    "sepmeasure.cache_rejects",
    "sepmeasure.cache_file_bytes",
    "sepmeasure.ws_materialized_s",
    "sepmeasure.slack_grid_s",
    "sepmeasure.weight_matrix_s",
    "sepmeasure.canonical_rectangle_s",
    "sepmeasure.rectangle_w_value_s",
    "sepmeasure.mu_s",
    "trace.overhead_s",
)

LP_SPANS = ("exactla.lp_solve", "exactla.conic")


def pass_metrics(op_spans: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics of one pass; `op_spans` holds one span list per
    traced op (span ids are unique within an op only)."""
    m = {name: 0 for name in PER_LAYER if name not in ("cli.import_s", "cli.output_bytes", "trace.overhead_s")}
    lp_total = lp_infeasible = 0
    conic_nmf_hits = 0
    vertices = 0
    for spans in op_spans:
        by_id = {s["id"]: s for s in spans}
        nets, selfs = net_and_self_times(spans)
        for s in spans:
            name, dur = s["name"], nets[s["id"]]
            m[f"{layer_of(s)}.self_s"] += selfs[s["id"]]
            if f"{name}_s" in m:
                m[f"{name}_s"] += dur
            if f"{name}_calls" in m:
                m[f"{name}_calls"] += 1
            if name in LP_SPANS:
                lp_total += 1
                lp_infeasible += s["infeasible"]
                m["exactla.lp_input_cells"] += s["cells"]
                m["exactla.lp_input_bits_max"] = max(m["exactla.lp_input_bits_max"], s["bits"])
                if s["site"] == "polytope":
                    m["polytope.lp_calls"] += 1
                elif s["site"] == "yannakakis":
                    key = "yannakakis.lp_calls" if name == "exactla.lp_solve" else "yannakakis.conic_calls"
                    m[key] += 1
                if has_ancestor(by_id, s, "bounds.nmf"):
                    if name == "exactla.lp_solve":
                        m["bounds.nmf_lp_calls"] += 1
                    else:
                        m["bounds.nmf_conic_calls"] += 1
                        conic_nmf_hits += not s["infeasible"]
            elif name == "polytope.build":
                m["polytope.build_checks"] += s["checks"]
            elif name == "polytope.slack_matrix":
                m["polytope.slack_cells"] += s["cells"]
            elif name == "bounds.cover":
                m["bounds.cover_explored"] += s["explored"]
            elif name == "yannakakis.contract":
                vertices += s["vertices"]
            elif name == "sepmeasure.ground_build":
                status = s["cache"]
                if status == "hit":
                    m["sepmeasure.cache_hits"] += 1
                    m["sepmeasure.ground_build_hit_s"] += dur
                else:
                    m["sepmeasure.ground_build_miss_s"] += dur
                    if status == "miss":
                        m["sepmeasure.cache_misses"] += 1
                    elif status == "reject":
                        m["sepmeasure.cache_rejects"] += 1
                m["sepmeasure.cache_file_bytes"] = max(m["sepmeasure.cache_file_bytes"], s["cache_bytes"])
    m["exactla.lp_infeasible_frac"] = lp_infeasible / lp_total if lp_total else 0.0
    m["bounds.nmf_conic_hit_frac"] = (
        conic_nmf_hits / m["bounds.nmf_conic_calls"] if m["bounds.nmf_conic_calls"] else 0.0
    )
    m["yannakakis.lp_per_vertex"] = m["yannakakis.lp_calls"] / vertices if vertices else 0.0
    return m
