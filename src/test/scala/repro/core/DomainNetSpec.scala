package repro.core

import repro.SparkSpec
import repro.lake.DataLake

class DomainNetSpec extends SparkSpec {

  /** Two domains bridged by one homograph plus an unambiguous repeat. */
  private def lake = DataLake.ofColumns(spark,
    "T1.animal" -> Seq("JAGUAR", "DOG", "FOX", "OWL", "DOG", "FOX", "OWL", "JAGUAR"),
    "T2.animal" -> Seq("DOG", "FOX", "OWL", "EMU", "DOG", "FOX", "OWL", "EMU"),
    "T1.car" -> Seq("JAGUAR", "FIAT", "AUDI", "OPEL", "FIAT", "AUDI", "OPEL", "JAGUAR"),
    "T2.car" -> Seq("FIAT", "AUDI", "OPEL", "SAAB", "FIAT", "AUDI", "OPEL", "SAAB"),
  )

  test("run with exact BC ranks the bridging homograph first") {
    val res = DomainNet.run(spark, lake, DomainNet.ExactBC)
    assert(res.topK(1) === Seq("JAGUAR"))
  }

  test("run with approximate BC agrees with exact on the top candidate") {
    val res = DomainNet.run(spark, lake, DomainNet.ApproxBC(numSamples = 6, seed = 3))
    assert(res.topK(1) === Seq("JAGUAR"))
  }

  test("run with LCC ranks the homograph lowest-coefficient first") {
    val res = DomainNet.run(spark, lake, DomainNet.LCC)
    assert(res.topK(1) === Seq("JAGUAR"))
  }

  test("scores DataFrame has one ranked row per value node") {
    val res = DomainNet.run(spark, lake, DomainNet.ExactBC)
    import spark.implicits._
    val rows = res.scores.select("rank").as[Long].collect().sorted
    assert(rows.toSeq === (1L to res.graph.numValues))
  }

  test("ranking is deterministic across runs") {
    val r1 = DomainNet.run(spark, lake, DomainNet.ExactBC).topK(8)
    val r2 = DomainNet.run(spark, lake, DomainNet.ExactBC).topK(8)
    assert(r1 === r2)
  }

  test("BC scores in the result are normalized to [0, 1]") {
    val res = DomainNet.run(spark, lake, DomainNet.ExactBC)
    import spark.implicits._
    val scores = res.scores.select("score").as[Double].collect()
    assert(scores.forall(s => s >= 0.0 && s <= 1.0))
  }

  test("score() reuses a pre-built graph consistently with run()") {
    val graph = LakeGraph.build(lake)
    val csr = BipartiteGraph.toCsr(graph)
    val viaScore = DomainNet.score(spark, graph, csr, DomainNet.ExactBC).topK(5)
    val viaRun = DomainNet.run(spark, lake, DomainNet.ExactBC).topK(5)
    assert(viaScore === viaRun)
  }

  private val measures = Seq(DomainNet.ExactBC, DomainNet.ApproxBC(numSamples = 5, seed = 1), DomainNet.LCC)

  test("an all-singleton lake has no value nodes and empty rankings") {
    val singletons = DataLake.ofColumns(spark, "T.a" -> Seq("x", "y"), "U.b" -> Seq("z", "w"))
    measures.foreach { m =>
      val res = DomainNet.run(spark, singletons, m)
      assert(res.graph.numValues === 0 && res.graph.numAttrs === 0 && res.csr.numNodes === 0, m.toString)
      assert(res.topK(3).isEmpty, m.toString)
      assert(res.scores.count() === 0, m.toString)
    }
  }

  test("a single-attribute lake ranks its tied values by id") {
    val oneColumn = DataLake.ofColumns(spark, "T.a" -> Seq("y", "x", "y", "x", "z"))
    measures.foreach { m =>
      assert(DomainNet.run(spark, oneColumn, m).topK(5) === Seq("X", "Y"), m.toString)
    }
  }

  test("rankIds orders by score, then by ascending id") {
    val rnd = new scala.util.Random(11)
    val scores = Array.fill(200)(rnd.nextInt(8) / 4.0)
    assert(DomainNet.rankIds(scores, 200, ascending = false).toSeq ===
      scores.indices.sortBy(i => (-scores(i), i)))
    assert(DomainNet.rankIds(scores, 200, ascending = true).toSeq ===
      scores.indices.sortBy(i => (scores(i), i)))
    assert(DomainNet.rankIds(scores, 3, ascending = true).sorted.toSeq === Seq(0, 1, 2))
  }

  test("scores DataFrame lists the ranking with rounded scores") {
    val res = DomainNet.run(spark, lake, DomainNet.LCC)
    import spark.implicits._
    val rows = res.scores.as[(String, Long, Double, Long)].collect().sortBy(_._4)
    assert(rows.map(_._1).toSeq === res.topK(rows.length))
    rows.foreach { case (v, id, s, _) =>
      assert(res.graph.valueNames(id.toInt) === v)
      assert(s === res.valueScores(id.toInt))
    }
  }
}
