package repro.perfbench

import scala.collection.mutable.ArrayBuffer

import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.SparkSession

import repro.core.{Betweenness, BipartiteGraph, Csr, DomainNet, LakeGraph, Lcc}
import repro.d4.D4
import repro.eval.Metrics
import repro.lake.DataLake

/** One reported number. `n` is the number of samples its median is taken over. */
final case class Metric(name: String, value: Double, unit: String, n: Int = 1)

final case class Report(attempted: Int, failed: Int, failures: Seq[String], env: Seq[(String, String)], metrics: Seq[Metric]) {
  def correct: Boolean = failed == 0

  /** Human-readable lines, then the result object as the last line. */
  def print(): Unit = {
    val json = new ObjectMapper()
    val envLine = json.createObjectNode()
    val envNode = envLine.putObject("env")
    env.foreach { case (k, v) => envNode.put(k, v) }
    println(json.writeValueAsString(envLine))
    failures.distinct.take(20).foreach(f => println(s"FAILED: $f"))
    metrics.foreach(m => println(f"${m.name}%-44s ${m.value}%s ${m.unit}%s (n=${m.n}%d)"))
    println(f"error_rate ${failed.toDouble / math.max(1, attempted)}%.6f ratio ($failed%d failed of $attempted%d attempted)")
    val result = json.createObjectNode().put("correct", correct).put("attempted", attempted).put("failed", failed)
    val values = result.putObject("metrics")
    metrics.foreach { m =>
      require(!m.value.isNaN && !m.value.isInfinite, s"${m.name} is not a finite number: ${m.value}")
      values.putObject(m.name).put("value", m.value).put("unit", m.unit)
    }
    println(json.writeValueAsString(result))
  }
}

/** The closed-loop DomainNet benchmark: one caller, one detection at a time,
  * in one local SparkSession.
  *
  * The timed operation, "detect", runs on a lake whose cells set-up has
  * already generated, cached and counted: `DomainNet.run` with the
  * workload's BC measure, its top-|H|, the LCC score of the same graph and
  * its top-|H|, and P@|H| of both lists. Every detect's outputs are checked;
  * a failed check or an exception counts as a failed operation.
  */
object Bench {

  val ShufflePartitions = 64
  /** Lake materialisations per run; set-up time is their median. */
  val SetupReps = 3
  /** Warm-up length; see [[warmUp]]. */
  val WarmupSeconds = 10.0
  /** A loop gives up after this many failed detects when none has succeeded. */
  val MaxFailedReps = 3
  val D4Config: D4.Config = D4.Config(tau = 0.35, dominance = 0.35)

  def session(workDir: String): SparkSession =
    SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .getOrCreate()

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = Workload.named(opt("workload"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val t0 = System.nanoTime()
    val spark = session(opts.getOrElse("work-dir", ".bench_build/work"))
    val sessionS = (System.nanoTime() - t0) / 1e9
    try run(spark, sessionS, workload, seed, seconds, trace).print()
    finally spark.stop()
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  private def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  private val started = System.nanoTime()

  /** Progress on standard error, so that standard output ends with the result. */
  private def progress(msg: String): Unit =
    Console.err.println(f"[perfbench ${(System.nanoTime() - started) / 1e9}%7.1fs] $msg")

  /** VmHWM of this JVM in MB. */
  def peakRssMb(): Double = {
    val src = scala.io.Source.fromFile("/proc/self/status")
    try src.getLines().collectFirst { case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024 }
      .getOrElse(throw new IllegalStateException("VmHWM not found"))
    finally src.close()
  }

  /** The highest nearest-rank percentile with at least ten samples beyond it. */
  def tailPercentile(xs: Seq[Double]): Option[(Int, Double)] =
    Seq(99, 95, 90, 75, 50).find(p => xs.size * (100 - p) / 100.0 >= 10).map { p =>
      val s = xs.sorted
      p -> s(math.max(0, math.ceil(p / 100.0 * s.size).toInt - 1))
    }

  /** Materialise the lake's cells so that generator lineage stays out of the timed path. */
  private def materialise(spark: SparkSession, w: Workload): Input = {
    val in = w.generate(spark)
    val cells = in.lake.cells.cache()
    cells.count()
    in.copy(lake = DataLake(cells, in.lake.numTables))
  }

  final case class Detected(csr: Csr, bcTop: Seq[String], lccTop: Seq[String], bcP: Double, lccP: Double)

  /** The timed operation. */
  def detectOnce(spark: SparkSession, lake: DataLake, bc: DomainNet.Measure, truth: Set[String]): Detected = {
    val k = truth.size
    val res = DomainNet.run(spark, lake, bc)
    val bcTop = res.topK(k)
    val lccTop = DomainNet.score(spark, res.graph, res.csr, DomainNet.LCC).topK(k)
    Detected(res.csr, bcTop, lccTop, Metrics.atK(bcTop, truth, k).precision, Metrics.atK(lccTop, truth, k).precision)
  }

  /** Discarded detects on the Figure-1 lake, at least one and for at least
    * `seconds`. They take JIT compilation and query code generation out of
    * the timed detects at a fraction of the cost of a full-size warm-up
    * detect; what the first detect on a large lake still pays (heap growth,
    * first large shuffles) a user of a fresh session pays too.
    */
  private def warmUp(spark: SparkSession, seconds: Double): Seq[Double] = {
    val in = materialise(spark, Workload.Figure1)
    val times = ArrayBuffer.empty[Double]
    val t0 = System.nanoTime()
    while (times.isEmpty || (System.nanoTime() - t0) / 1e9 < seconds) {
      times += time(detectOnce(spark, in.lake, DomainNet.ExactBC, in.truth))._2
      progress(f"warm-up ${times.last}%.3f s")
    }
    in.lake.cells.unpersist(blocking = true)
    times.toSeq
  }

  def run(
      spark: SparkSession,
      sessionS: Double,
      w: Workload,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      warmupSeconds: Double = WarmupSeconds): Report = {
    val cores = spark.sparkContext.defaultParallelism

    // ---- set-up: generate, cache and count the lake's cells, several times ----
    val setupTimes = ArrayBuffer.empty[Double]
    var input: Input = null
    (1 to SetupReps).foreach { _ =>
      if (input != null) input.lake.cells.unpersist(blocking = true)
      val (in, s) = time(materialise(spark, w))
      input = in
      setupTimes += s
      progress(f"set-up $s%.3f s")
    }
    val lake = input.lake
    val truth = input.truth
    val k = truth.size

    val graphValues = input.expected.values
    val numNodes = input.expected.numNodes
    val bc = w.bc(numNodes, seed)
    val sources = bc match {
      case DomainNet.ApproxBC(s, _) if s < numNodes => s
      case _ => numNodes
    }

    var attempted = 0
    var failed = 0
    val failures = ArrayBuffer.empty[String]
    var reference: Option[(Seq[String], Seq[String])] = None

    def record(problems: Seq[String]): Unit = {
      attempted += 1
      if (problems.nonEmpty) { failed += 1; failures ++= problems }
    }

    def listProblems(label: String, top: Seq[String]): Seq[String] =
      Seq(
        (top.size != k) -> s"$label holds ${top.size} values, expected $k",
        (top.distinct.size != top.size) -> s"$label holds duplicate values",
        !top.forall(graphValues.contains) -> s"$label holds values absent from the graph",
      ).collect { case (true, p) => p }

    /** Check one detect's outputs. */
    def check(csr: Csr, bcTop: Seq[String], lccTop: Seq[String]): Unit = {
      val problems = ArrayBuffer.empty[String]
      if (csr.numValues != graphValues.size || csr.numNodes != numNodes)
        problems += s"graph has ${csr.numValues} values / ${csr.numNodes} nodes, expected ${graphValues.size} / $numNodes"
      problems ++= listProblems("BC top-|H|", bcTop)
      problems ++= listProblems("LCC top-|H|", lccTop)
      reference match {
        case None => reference = Some((bcTop, lccTop))
        case Some((b, l)) =>
          if (b != bcTop) problems += "BC top-|H| differs between reps of one seed"
          if (l != lccTop) problems += "LCC top-|H| differs between reps of one seed"
      }
      problems ++= w.gates(input, bcTop, lccTop).collect { case (gate, false) => s"gate failed: $gate" }
      record(problems.toSeq)
    }

    def detect(): Option[(Detected, Double)] =
      try {
        val (d, s) = time(detectOnce(spark, lake, bc, truth))
        check(d.csr, d.bcTop, d.lccTop)
        progress(f"detect $s%.3f s")
        Some((d, s))
      } catch {
        case e: Exception =>
          record(Seq(e.toString))
          None
      }

    // ---- warm-up (discarded), then the timed closed loop ----
    val figureWarmup = warmUp(spark, warmupSeconds)
    val ownWarmup = (1 to w.warmupReps).flatMap(_ => detect().map(_._2))
    val detectTimes = ArrayBuffer.empty[Double]
    var last: Option[Detected] = None
    val t0 = System.nanoTime()
    while (detectTimes.isEmpty && failed < MaxFailedReps || (System.nanoTime() - t0) / 1e9 < seconds)
      detect().foreach { case (d, s) => detectTimes += s; last = Some(d) }
    val detected = last.getOrElse(throw new IllegalStateException(s"every detect failed: ${failures.distinct.mkString("; ")}"))
    val detectS = median(detectTimes.toSeq)

    val env = Seq(
      "workload" -> w.name,
      "why" -> w.why,
      "seed" -> seed.toString,
      "trace" -> (if (trace) "1" else "0"),
      "loop" -> "closed, 1 caller",
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "default_parallelism" -> cores.toString,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "spark" -> spark.version,
      "bc_measure" -> bc.toString,
      "bc_sources" -> sources.toString,
      "homographs" -> k.toString,
      "setup_s_reps" -> setupTimes.map(t => f"$t%.3f").mkString(" "),
      "warmup_reps_discarded" -> s"${figureWarmup.size} on the Figure-1 lake, ${ownWarmup.size} on ${w.name}",
      "warmup_s_reps" -> (figureWarmup ++ ownWarmup).map(t => f"$t%.3f").mkString(" "),
      "detect_s_reps" -> detectTimes.map(t => f"$t%.3f").mkString(" "),
      "detect_s_tail" -> tailPercentile(detectTimes.toSeq).fold(s"none: ${detectTimes.size} reps < 20") {
        case (p, v) => s"p$p=$v"
      })

    val metrics =
      if (trace) traced(spark, w, input, bc, cores, sources, detectS, check, record)
      else Seq(
        Metric("setup_s", sessionS + median(setupTimes.toSeq), "s", setupTimes.size),
        Metric("detect_s", detectS, "s", detectTimes.size),
        Metric("edges_per_s", detected.csr.numEdges / detectS, "edges/s", detectTimes.size),
        Metric("bc_p_at_h", detected.bcP, "ratio"),
        Metric("lcc_p_at_h", detected.lccP, "ratio"),
        Metric("peak_rss_mb", peakRssMb(), "MB"))
    val layerMap = if (!trace) Nil else Seq("layer_map" -> Layers.predictions.map { case (l, m) => s"$l => $m" }.mkString(" | "))
    Report(attempted, failed, failures.toSeq, env ++ layerMap, metrics)
  }

  /** The traced run: the detect operation with `DomainNet.run` unrolled into
    * its three calls, each call in its own span, then each kernel alone with
    * identical arguments.
    */
  private def traced(
      spark: SparkSession,
      w: Workload,
      input: Input,
      bc: DomainNet.Measure,
      cores: Int,
      sources: Int,
      detectS: Double,
      check: (Csr, Seq[String], Seq[String]) => Unit,
      record: Seq[String] => Unit): Seq[Metric] = {
    val lake = input.lake
    val k = input.truth.size
    val tracer = new Tracer(spark)
    val (d, tracedS) = time {
      val graph = tracer.span("lake_graph.build")(LakeGraph.build(lake))
      val csr = tracer.span("bipartite.to_csr")(BipartiteGraph.toCsr(graph))
      val bcRes = tracer.span("domain_net.score_bc")(DomainNet.score(spark, graph, csr, bc))
      val bcTop = tracer.span("domain_net.top_k_bc")(bcRes.topK(k))
      val lccRes = tracer.span("domain_net.score_lcc")(DomainNet.score(spark, graph, csr, DomainNet.LCC))
      val lccTop = tracer.span("domain_net.top_k_lcc")(lccRes.topK(k))
      Detected(csr, bcTop, lccTop, Metrics.atK(bcTop, input.truth, k).precision, Metrics.atK(lccTop, input.truth, k).precision)
    }
    check(d.csr, d.bcTop, d.lccTop)
    val csr = d.csr
    tracer.span("betweenness.kernel") {
      bc match {
        case DomainNet.ExactBC => Betweenness.exact(spark, csr, normalized = true)
        case DomainNet.ApproxBC(s, seed) => Betweenness.approximate(spark, csr, s, seed, normalized = true)
        case m => throw new IllegalArgumentException(s"not a BC measure: $m")
      }
    }
    tracer.span("lcc.kernel")(Lcc.compute(spark, csr))
    // D4 as `Experiments.runSB` scores it: F1 of the flagged set at k=|H|.
    val d4F1 =
      if (!w.runsD4) 0.0
      else {
        val r = tracer.span("d4.run")(D4.run(spark, lake, D4Config))
        val hits = r.homographs.count(input.truth.contains)
        val p = if (r.homographs.isEmpty) 0.0 else hits.toDouble / r.homographs.size
        val rec = hits.toDouble / k
        val f1 = if (p + rec == 0) 0.0 else 2 * p * rec / (p + rec)
        record(w.d4Gates(d.bcP, f1).collect { case (gate, false) => s"gate failed: $gate" })
        f1
      }

    val spans = tracer.totals().toMap
    val layer = Layers.spans.flatMap { name =>
      val t = spans.getOrElse(name, SpanTotals(0, 0, 0, 0, 0, 0, 0))
      t.metrics(cores).map { case (m, v, u) => Metric(s"$name.$m", v, u) }
    }
    val selfTimes = Seq(
      Metric("domain_net.score_bc.self_s",
        Tracer.selfTime(spans("domain_net.score_bc"), spans("betweenness.kernel")), "s"),
      Metric("domain_net.score_lcc.self_s",
        Tracer.selfTime(spans("domain_net.score_lcc"), spans("lcc.kernel")), "s"))
    val g = GraphStats.of(csr)
    val stats = Seq(
      Metric("graph.values", g.values, "count"),
      Metric("graph.attrs", g.attrs, "count"),
      Metric("graph.edges", g.edges, "count"),
      Metric("graph.value_classes", g.valueClasses, "count"),
      Metric("graph.class_ratio", g.classRatio, "ratio"),
      Metric("graph.components", g.components, "count"),
      Metric("graph.giant_frac", g.giantFrac, "ratio"),
      Metric("csr.bytes", g.csrBytes.toDouble, "bytes"),
      Metric("betweenness.sources", sources, "count"),
      Metric("betweenness.traversal_bound", g.traversalBound(sources), "count"))
    val overhead = Seq(
      Metric("trace.detect_s", tracedS, "s"),
      Metric("trace.overhead_s", tracedS - detectS, "s"))
    layer ++ selfTimes ++ Seq(Metric("d4.f1", d4F1, "ratio")) ++ stats ++ overhead
  }
}
