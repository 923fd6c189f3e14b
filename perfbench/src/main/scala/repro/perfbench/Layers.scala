package repro.perfbench

/** The layers the traced run measures and the end-to-end metric each should
  * move, written down before any optimisation is measured.
  */
object Layers {

  /** Spans in the order the traced run opens them. The first six unroll one
    * detect; the last three call each kernel alone with identical arguments.
    */
  val spans: Seq[String] = Seq(
    "lake_graph.build",
    "bipartite.to_csr",
    "domain_net.score_bc",
    "domain_net.top_k_bc",
    "domain_net.score_lcc",
    "domain_net.top_k_lcc",
    "betweenness.kernel",
    "lcc.kernel",
    "d4.run")

  /** Layer metrics and the end-to-end metric each should move, on which
    * workload. Printed with every traced result.
    */
  val predictions: Seq[(String, String)] = Seq(
    "lake_graph.build.{s,shuffle_write_bytes}, bipartite.to_csr.{s,result_bytes}" ->
      ("detect_s and edges_per_s on tus, where build and CSR collect are most of a detect; on sb the cost is " +
        "per-job overhead, so watch .jobs there"),
    "bipartite.to_csr.result_bytes" ->
      "peak_rss_mb on tus: the collected edge list and CSR live on the driver",
    "betweenness.kernel.{s,core_util,max_task_s}" ->
      ("detect_s on tus, a minor share; no change on sb, where exact BC takes a fraction of a second; " +
        "bc_p_at_h holds unless a change alters sampling"),
    "domain_net.score_bc.self_s, domain_net.score_lcc.self_s, domain_net.top_k_bc.s, domain_net.top_k_lcc.s" ->
      "detect_s on tus (the DataFrame ranking and the join back to value strings)",
    "lcc.kernel.s" ->
      "barely any end-to-end metric: under 0.5 s on every workload",
    "d4.run.*, d4.f1" ->
      ("no end-to-end metric: D4 runs on sb only, in the traced run, and every end-to-end metric must exist on " +
        "every workload"))
}
