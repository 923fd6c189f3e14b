package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.lake.DataLake

/** End-to-end DomainNet pipeline (paper §3.4):
  *
  *   1. construct the bipartite graph from the lake ([[LakeGraph]]);
  *   2. compute a centrality measure per value node ([[Betweenness]] /
  *      [[Lcc]]);
  *   3. rank value nodes (descending BC, ascending LCC) — the top of the
  *      ranking are the homograph candidates shown to the user.
  */
object DomainNet {

  /** Which centrality measure scores the value nodes. */
  sealed trait Measure
  /** Exact betweenness centrality. */
  case object ExactBC extends Measure
  /** Sampled betweenness centrality (`numSamples` BFS sources). */
  final case class ApproxBC(numSamples: Int, seed: Long = 7L) extends Measure
  /** Bipartite local clustering coefficient. */
  case object LCC extends Measure

  /** A scored lake: graph + per-value scores, ranked on the driver.
    *
    * @param valueScores score per value id
    * @param ranking     value ids, strongest homograph candidate first
    */
  final case class Result(graph: LakeGraph, csr: Csr, valueScores: Array[Double], ranking: Array[Int]) {

    /** Top-k candidate value strings, strongest first. */
    def topK(k: Int): Seq[String] = ranking.take(k).map(graph.valueNames).toSeq

    /** DataFrame `(value, valueId, score, rank)` where rank 1 is the
      * strongest homograph candidate.
      */
    lazy val scores: DataFrame = {
      import graph.spark.implicits._
      ranking.toSeq.zipWithIndex
        .map { case (id, r) => (graph.valueNames(id), id.toLong, valueScores(id), r + 1L) }
        .toDF("value", "valueId", "score", "rank")
    }
  }

  /** Value ids `[0, n)` ordered by `scores` (descending, or ascending when
    * `ascending`), ties broken by ascending id. The one ranking rule of the
    * pipeline and the experiment drivers.
    */
  def rankIds(scores: Array[Double], n: Int, ascending: Boolean): Array[Int] = {
    val byScore: Ordering[Int] =
      if (ascending) (a, b) => java.lang.Double.compare(scores(a), scores(b))
      else (a, b) => java.lang.Double.compare(scores(b), scores(a))
    Array.range(0, n).sorted(byScore.orElse(Ordering.Int))
  }

  /** Build the graph and score every value node with `measure`. */
  def run(spark: SparkSession, lake: DataLake, measure: Measure): Result = {
    val graph = LakeGraph.build(lake)
    val csr = BipartiteGraph.toCsr(graph)
    score(spark, graph, csr, measure)
  }

  /** Score a pre-built graph (lets callers reuse one graph for several
    * measures, as the benches do).
    */
  def score(spark: SparkSession, graph: LakeGraph, csr: Csr, measure: Measure): Result = {
    val (rawScores, ascending) = measure match {
      case ExactBC            => (Betweenness.exact(spark, csr, normalized = true), false)
      case ApproxBC(s, seed)  => (Betweenness.approximate(spark, csr, s, seed, normalized = true), false)
      case LCC                => (Lcc.compute(spark, csr), true)
    }
    // BC sums per-source dependencies with a tree reduction whose combine
    // order follows task completion; round away the resulting float noise
    // (all scores here are normalized to [0, 1]) so that genuinely tied
    // nodes always fall back to the valueId tie-break deterministically.
    val rounded = Array.tabulate(csr.numValues)(i => math.rint(rawScores(i) * 1e9) / 1e9)
    Result(graph, csr, rounded, rankIds(rounded, csr.numValues, ascending))
  }
}
