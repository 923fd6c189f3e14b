package repro.core

import repro.{Oracle, SparkSpec}
import repro.lake.DataLake
import org.apache.spark.sql.functions._

class LakeGraphSpec extends SparkSpec {

  private def smallLake = DataLake.ofColumns(spark,
    "T1.a" -> Seq("x", "y", "z", "x"),   // x repeats within the column
    "T1.b" -> Seq(" y ", "w"),           // y with whitespace -> normalized
    "T2.c" -> Seq("X", "q"),             // x lower/upper -> same node
  )

  test("normalization trims, upper-cases, and drops empty/null values") {
    import spark.implicits._
    val lake = DataLake.ofColumns(spark, "T.a" -> Seq("  a b ", "", "   ", "B", "a b"))
    val cells = LakeGraph.normalizedCells(lake).as[(String, String)].collect()
    assert(cells.map(_._2).toSet === Set("A B", "B"))
    assert(cells.count(_._2 == "A B") === 2)
  }

  test("build drops values occurring once and deduplicates edges") {
    import spark.implicits._
    val g = LakeGraph.build(smallLake)
    val vals = g.values.as[(String, Long)].collect().map(_._1).toSet
    // kept: X (3 cells), Y (2 cells); dropped singletons: z, w, q
    assert(vals === Set("X", "Y"))
    // X: edges to T1.a and T2.c (the within-column repeat dedupes); Y: T1.a, T1.b
    assert(g.numEdges === 4)
  }

  test("cell counts and edges merge across partitions") {
    import spark.implicits._
    // One cell per partition, so X's and Y's cells land in different tasks;
    // Y survives pruning only if its two cells are counted together.
    val cells = Seq("T.a" -> "x", "T.b" -> "y", "T.a" -> "x", "T.b" -> "x", "T.c" -> "y", "T.c" -> "z")
    val lake = DataLake(spark.sparkContext.parallelize(cells, cells.size).toDF("attribute", "value"), 1)
    val g = LakeGraph.build(lake)
    assert(g.valueNames.toSeq === Seq("X", "Y"))
    assert(g.attrNames.toSeq === Seq("T.a", "T.b", "T.c"))
    // X: T.a (two cells, one edge) and T.b; Y: T.b and T.c
    assert(g.numEdges === 4)
    assert(g.csr.neighborsOf(0).toSeq === Seq(2, 3))
    assert(g.csr.neighborsOf(1).toSeq === Seq(3, 4))
  }

  test("node ids are contiguous and bipartite-partitioned") {
    import spark.implicits._
    val g = LakeGraph.build(smallLake)
    val vIds = g.values.as[(String, Long)].collect().map(_._2).sorted
    val aIds = g.attrs.as[(String, Long)].collect().map(_._2).sorted
    assert(vIds.toSeq === (0L until g.numValues))
    assert(aIds.toSeq === (g.numValues until g.numValues + g.numAttrs))
  }

  test("graph build is deterministic") {
    import spark.implicits._
    val g1 = LakeGraph.build(smallLake)
    val g2 = LakeGraph.build(smallLake)
    assert(g1.values.as[(String, Long)].collect().sortBy(_._2).toSeq ===
           g2.values.as[(String, Long)].collect().sortBy(_._2).toSeq)
    assert(g1.edges.as[(Long, Long)].collect().toSet === g2.edges.as[(Long, Long)].collect().toSet)
  }

  test("value degrees and attribute cardinalities agree with DuckDB") {
    val lake = DataLake.ofColumns(spark,
      "T.a" -> Seq("x", "y", "z"),
      "T.b" -> Seq("x", "y"),
      "U.c" -> Seq("x", "k", "k"))
    val cells = LakeGraph.normalizedCells(lake)
    val edges = cells.distinct()
    val degrees = edges.groupBy("value").agg(count(lit(1)).as("degree"))
    Oracle.assertEquivalent(
      degrees,
      "SELECT value, count(*) AS degree FROM (SELECT DISTINCT attribute, value FROM cells) GROUP BY value",
      "cells" -> cells)
    val cards = edges.groupBy("attribute").agg(count(lit(1)).as("cardinality"))
    Oracle.assertEquivalent(
      cards,
      "SELECT attribute, count(*) AS cardinality FROM (SELECT DISTINCT attribute, value FROM cells) GROUP BY attribute",
      "cells" -> cells)
  }

  test("candidateValues are exactly the values in >=2 attributes") {
    import spark.implicits._
    val lake = DataLake.ofColumns(spark,
      "T.a" -> Seq("x", "y", "y"),
      "T.b" -> Seq("x", "z", "z"))
    val g = LakeGraph.build(lake)
    val cands = g.candidateValues.select("value").as[String].collect().toSet
    assert(cands === Set("X")) // y and z repeat but only within one column
  }

  test("pruning with minOccurrences=1 keeps every distinct value") {
    val g = LakeGraph.build(smallLake, minOccurrences = 1)
    assert(g.numValues === 5) // X, Y, Z, W, Q ("X" and "x" merge)
  }

  test("CSR matches the DataFrame edge list") {
    import spark.implicits._
    val g = LakeGraph.build(smallLake, minOccurrences = 1)
    val csr = BipartiteGraph.toCsr(g)
    assert(csr.numNodes === g.numNodes.toInt)
    assert(csr.numEdges === g.numEdges.toInt)
    val dfEdges = g.edges.as[(Long, Long)].collect()
      .map { case (v, a) => (v.toInt, a.toInt) }.toSet
    val csrEdges = (0 until csr.numValues).flatMap(v => csr.neighborsOf(v).map(a => (v, a))).toSet
    assert(csrEdges === dfEdges)
  }

  test("GraphX degrees agree with DataFrame degrees") {
    val g = LakeGraph.build(smallLake, minOccurrences = 1)
    val gx = BipartiteGraph.toGraphX(g)
    val gxDegrees = gx.degrees.collect().toMap
    import spark.implicits._
    val dfDegrees = g.edges.groupBy("valueId").agg(count(lit(1)).as("d"))
      .as[(Long, Long)].collect().toMap
    dfDegrees.foreach { case (id, d) =>
      assert(gxDegrees(id) === d.toInt, s"valueId=$id")
    }
  }

  test("GraphX marks value vertices true and attribute vertices false") {
    val g = LakeGraph.build(smallLake, minOccurrences = 1)
    val gx = BipartiteGraph.toGraphX(g)
    gx.vertices.collect().foreach { case (id, isValue) =>
      assert(isValue === (id < g.numValues))
    }
  }

  test("value ids follow Spark's string order, not Java's UTF-16 order") {
    import spark.implicits._
    val lake = DataLake.ofColumns(spark,
      "T.a" -> Seq("b", "\uFF21", "\uD83D\uDE00", "a"),   // Ａ (U+FF21), 😀 (U+1F600)
      "U.b" -> Seq("\uD83D\uDE00", "a", "\uFF21", "b"))
    val g = LakeGraph.build(lake)
    val sparkOrder = LakeGraph.normalizedCells(lake).select("value").distinct().orderBy("value")
      .as[String].collect().toSeq
    assert(sparkOrder === Seq("A", "B", "\uFF21", "\uD83D\uDE00"))
    assert(g.valueNames.toSeq === sparkOrder)
    assert(g.values.as[(String, Long)].collect().sortBy(_._2).map(_._1).toSeq === sparkOrder)
    assert(sparkOrder.sorted !== sparkOrder) // Java's order differs here
  }

  test("a single-attribute lake builds a star") {
    val g = LakeGraph.build(DataLake.ofColumns(spark, "T.a" -> Seq("x", "y", "x", "y", "z")))
    assert(g.valueNames.toSeq === Seq("X", "Y"))
    assert(g.attrNames.toSeq === Seq("T.a"))
    assert(g.csr.neighborsOf(2).toSeq === Seq(0, 1))
  }

  test("node counts beyond the Int id space fail loudly") {
    assert(LakeGraph.checkedNodeCount(3, 4) === 7)
    val e = intercept[IllegalArgumentException](LakeGraph.checkedNodeCount(Int.MaxValue.toLong, 1))
    assert(e.getMessage.contains("Int node id space"))
  }
}
