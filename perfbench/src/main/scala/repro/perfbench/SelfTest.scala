package repro.perfbench

import java.io.File

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.ObjectMapper

/** Benchmark self-test on the paper's Figure-1 example lake. It runs the
  * untraced and the traced run and checks that every metric `BENCHMARK.json`
  * names is emitted with its unit, that the run's output checks pass, that
  * the span arithmetic (self time, core utilisation) is right, and that the
  * workloads and their reasons match `BENCHMARK.json`.
  *
  * Usage: `SelfTest --benchmark BENCHMARK.json [--work-dir DIR]`; exits 1 on
  * any failed check.
  */
object SelfTest {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val spec = new ObjectMapper().readTree(new File(opts.getOrElse("benchmark", "BENCHMARK.json")))
    def declared(key: String): Seq[(String, String)] =
      spec.get(key).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq

    val problems = ArrayBuffer.empty[String]
    def expect(ok: Boolean, what: => String): Unit = if (!ok) problems += what

    val declaredWhy = spec.get("workloads").elements().asScala.map(w => w.get("name").asText -> w.get("why").asText).toMap
    expect(declaredWhy.keySet == Workload.all.map(_.name).toSet,
      s"BENCHMARK.json workloads ${declaredWhy.keySet.mkString(", ")} differ from ${Workload.all.map(_.name).mkString(", ")}")
    for (w <- Workload.all) expect(declaredWhy.get(w.name).contains(w.why), s"${w.name}: why differs from BENCHMARK.json")

    // Span arithmetic on hand-made totals.
    val score = SpanTotals(s = 2.5, jobs = 3, tasks = 12, taskS = 6.0, shuffleWriteBytes = 0, resultBytes = 0, maxTaskS = 1)
    val kernel = SpanTotals(s = 1.0, jobs = 1, tasks = 4, taskS = 2.0, shuffleWriteBytes = 0, resultBytes = 0, maxTaskS = 1)
    expect(Tracer.selfTime(score, kernel) == 1.5, s"selfTime(2.5 s, 1.0 s) = ${Tracer.selfTime(score, kernel)}, expected 1.5")
    expect(score.coreUtil(4) == 0.6, s"coreUtil(6 task-s over 2.5 s on 4 cores) = ${score.coreUtil(4)}, expected 0.6")

    val spark = Bench.session(opts.getOrElse("work-dir", ".bench_build/work"))
    try {
      val cores = spark.sparkContext.defaultParallelism
      for ((trace, key) <- Seq(false -> "end_to_end", true -> "per_layer")) {
        val report = Bench.run(spark, sessionS = 0.0, Workload.Figure1, seed = 0, seconds = 0, trace = trace, warmupSeconds = 0)
        report.print()
        expect(report.correct, s"trace=$trace: output checks failed: ${report.failures.distinct.mkString("; ")}")
        val emitted = report.metrics.map(m => m.name -> m).toMap
        expect(emitted.size == report.metrics.size, s"trace=$trace: a metric is emitted twice")
        for ((name, unit) <- declared(key))
          emitted.get(name) match {
            case None => problems += s"trace=$trace: $name is not emitted"
            case Some(m) => expect(m.unit == unit, s"trace=$trace: $name has unit ${m.unit}, BENCHMARK.json says $unit")
          }
        expect(emitted.keySet == declared(key).map(_._1).toSet,
          s"trace=$trace: emitted but not declared: ${(emitted.keySet -- declared(key).map(_._1)).mkString(", ")}")

        if (trace) {
          def v(name: String): Double = emitted(name).value
          for ((score, kernel) <- Seq("score_bc" -> "betweenness.kernel", "score_lcc" -> "lcc.kernel")) {
            val self = v(s"domain_net.$score.self_s")
            val want = v(s"domain_net.$score.s") - v(s"$kernel.s")
            expect(math.abs(self - want) < 1e-12, s"domain_net.$score.self_s = $self, expected $want")
          }
          for (span <- Layers.spans if v(s"$span.s") > 0) {
            val want = v(s"$span.task_s") / (v(s"$span.s") * cores)
            expect(math.abs(v(s"$span.core_util") - want) < 1e-12, s"$span.core_util = ${v(s"$span.core_util")}, expected $want")
          }
          expect(v("graph.edges") > 0 && v("graph.values") > 0, "graph statistics are empty")
          expect(v("lake_graph.build.jobs") > 0, "no Spark job was attributed to lake_graph.build")
        }
      }
    } finally spark.stop()

    if (problems.isEmpty) println("SELF-TEST PASSED")
    else {
      problems.foreach(p => println(s"SELF-TEST FAILED: $p"))
      sys.exit(1)
    }
  }
}
