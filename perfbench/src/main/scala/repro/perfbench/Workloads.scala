package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.DomainNet
import repro.data.{SyntheticBenchmark, TusGen}
import repro.eval.Metrics
import repro.lake.DataLake

/** A generated lake, its ground truth, and the graph it should yield. */
final case class Input(
    lake: DataLake,
    truth: Set[String],
    expected: ExpectedGraph,
    smallDomainHomographs: Set[String] = Set.empty)

/** The value nodes and attribute count of a lake's graph, derived on the
  * driver from the generator's raw cells by the paper's rules, independently
  * of `LakeGraph`: values are trimmed and upper-cased, empty ones dropped, and
  * values in fewer than two cells pruned.
  */
final case class ExpectedGraph(values: Set[String], numAttrs: Int) {
  def numNodes: Int = values.size + numAttrs
}

object ExpectedGraph {

  def of(cells: Iterator[(String, String)]): ExpectedGraph = {
    val occurrences = scala.collection.mutable.HashMap.empty[String, Int]
    val attrsOf = scala.collection.mutable.HashMap.empty[String, Set[String]]
    cells.foreach { case (attr, raw) =>
      val v = if (raw == null) "" else raw.trim.toUpperCase
      if (v.nonEmpty) {
        occurrences(v) = occurrences.getOrElse(v, 0) + 1
        attrsOf(v) = attrsOf.getOrElse(v, Set.empty) + attr
      }
    }
    val kept = occurrences.collect { case (v, n) if n >= 2 => v }.toSet
    ExpectedGraph(kept, kept.flatMap(attrsOf).size)
  }

  /** Cells of driver-side tables, named `<table>.<column>` as in `DataLake.fromTables`. */
  def ofTables(tables: Seq[(String, DataFrame)]): ExpectedGraph =
    of(tables.iterator.flatMap { case (t, df) =>
      val cols = df.columns
      df.collect().iterator.flatMap(row => cols.indices.map(i =>
        s"$t.${cols(i)}" -> Option(row.get(i)).map(_.toString).orNull))
    })
}

/** One set of inputs the benchmark runs. Each workload's lake is fixed so
  * that graph size, and with it every timing, is the same on every seed; the
  * seed picks the BC sample where BC is sampled.
  */
trait Workload {
  def name: String

  /** Why the workload is in the benchmark (one sentence, recorded with every result). */
  def why: String

  def generate(spark: SparkSession): Input

  /** The BC measure for a graph of `numNodes` nodes. */
  def bc(numNodes: Int, seed: Long): DomainNet.Measure

  def runsD4: Boolean

  /** Detects on the workload's own lake discarded after the Figure-1 warm-up. */
  def warmupReps: Int

  /** Output gates of the repository's bench suites, thresholds as they are. */
  def gates(in: Input, bcTop: Seq[String], lccTop: Seq[String]): Seq[(String, Boolean)] = Nil

  def d4Gates(bcPrecision: Double, d4F1: Double): Seq[(String, Boolean)] = Nil
}

object Workload {

  val all: Seq[Workload] = Seq(Sb, Tus)

  def named(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; expected one of ${all.map(_.name).mkString(", ")}"))

  private def precision(top: Seq[String], truth: Set[String], k: Int): Double =
    Metrics.atK(top, truth, k).precision

  object Sb extends Workload {
    val name = "sb"
    val why = "SyntheticBenchmark seed 0, 3k nodes: Spark per-job overhead dominates; the only workload with exact BC " +
      "and D4, so adding jobs to win at scale shows as a loss here."

    def generate(spark: SparkSession): Input = {
      val sb = SyntheticBenchmark.generate(spark, seed = 0)
      Input(sb.lake, sb.homographs, ExpectedGraph.ofTables(sb.tables), sb.smallDomainHomographs)
    }

    def bc(numNodes: Int, seed: Long): DomainNet.Measure = DomainNet.ExactBC

    val runsD4 = true

    // The first sb detect after the Figure-1 warm-up still varies by up to 40%.
    val warmupReps = 1

    // SBCompareBench
    override def gates(in: Input, bcTop: Seq[String], lccTop: Seq[String]): Seq[(String, Boolean)] = {
      val k = in.truth.size
      val bcP = precision(bcTop, in.truth, k)
      val missed = in.truth.diff(bcTop.toSet)
      Seq(
        "sb BC P@|H| > 0.5" -> (bcP > 0.5),
        "sb BC P@|H| > LCC P@|H| + 0.2" -> (bcP > precision(lccTop, in.truth, k) + 0.2),
        "sb BC misses are mostly small-domain codes" ->
          (missed.count(in.smallDomainHomographs.contains) >= missed.size / 2))
    }

    override def d4Gates(bcPrecision: Double, d4F1: Double): Seq[(String, Boolean)] =
      Seq("sb BC P@|H| > D4 F1 + 0.1" -> (bcPrecision > d4F1 + 0.1))
  }

  object Tus extends Workload {
    val name = "tus"
    val why = "TUS analogue, 132k nodes and 772k edges, 1%-sampled BC: the relational build and CSR collect dominate " +
      "and the BC kernel is a minor share."

    def generate(spark: SparkSession): Input = {
      val spec = TusGen.generate(TusGen.tusParams(seed = 0))
      // toLake emits every cell twice
      val cells = spec.columns.iterator.flatMap(c => c.values.iterator.flatMap(v => Iterator(c.attribute -> v, c.attribute -> v)))
      Input(spec.toLake(spark), spec.homographs, ExpectedGraph.of(cells))
    }

    // the sampling the experiment drivers use: 1% of nodes, at least 500
    def bc(numNodes: Int, seed: Long): DomainNet.Measure = DomainNet.ApproxBC(math.max(500, numNodes / 100), seed)

    val runsD4 = false

    // A full-scale warm-up detect costs about 30 s, more than a run can spend.
    val warmupReps = 0

    // TusTopKBench, except its best-F1 gate, which needs the full ranking
    override def gates(in: Input, bcTop: Seq[String], lccTop: Seq[String]): Seq[(String, Boolean)] = {
      val p200 = precision(bcTop, in.truth, 200)
      val pH = precision(bcTop, in.truth, in.truth.size)
      Seq(
        "tus P@200 >= 0.75" -> (p200 >= 0.75),
        "tus P@|H| >= 0.45" -> (pH >= 0.45),
        "tus P@200 > P@|H|" -> (p200 > pH),
        "tus top-10 holds >= 8 shared tokens" -> (bcTop.take(10).count(_.startsWith("SHARED_")) >= 8))
    }
  }

  /** The paper's running example (Figure 1): four tables, Jaguar and Puma
    * the homographs. Too small to measure; it warms the JVM and Spark before
    * timing, and the self-test runs every metric on it.
    */
  object Figure1 extends Workload {
    val name = "figure1"
    val why = "The paper's Figure-1 example lake, used for warm-up and the self-test."

    def generate(spark: SparkSession): Input = {
      import spark.implicits._
      val t1 = Seq(
        ("Google", "Panda", "1M"),
        ("Volkswagen", "Puma", "2M"),
        ("BMW", "Jaguar", "0.9M"),
        ("Amazon", "Pelican", "1.5M"),
      ).toDF("Donor", "AtRisk", "Donation")
      val t2 = Seq(
        ("Panda", "Memphis", "2"),
        ("Panda", "Atlanta", "2"),
        ("Lemur", "National", "20"),
        ("Jaguar", "San Diego", "8"),
      ).toDF("name", "locale", "num")
      val t3 = Seq(
        ("XE", "Jaguar", "UK"),
        ("Prius", "Toyota", "Japan"),
        ("500", "Fiat", "Italy"),
      ).toDF("C1", "C2", "C3")
      val t4 = Seq(
        ("Jaguar", "25.80", "43224"),
        ("Puma", "4.64", "13000"),
        ("Apple", "456", "370870"),
        ("Toyota", "123", "123456"),
      ).toDF("Name", "Revenue", "Total")
      val tables = Seq("T1" -> t1, "T2" -> t2, "T3" -> t3, "T4" -> t4)
      Input(DataLake.fromTables(tables), Set("JAGUAR", "PUMA"), ExpectedGraph.ofTables(tables))
    }

    def bc(numNodes: Int, seed: Long): DomainNet.Measure = DomainNet.ExactBC

    val runsD4 = true

    val warmupReps = 0
  }
}
