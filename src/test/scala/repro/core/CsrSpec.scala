package repro.core

import org.scalatest.funsuite.AnyFunSuite
import GraphFixtures._

class CsrSpec extends AnyFunSuite {

  test("fromEdges builds a symmetric adjacency with sorted lists") {
    val csr = Csr.fromEdges(5, 3, Iterator((0, 3), (1, 3), (2, 4), (0, 4)))
    assert(csr.numNodes === 5)
    assert(csr.numValues === 3)
    assert(csr.numAttrs === 2)
    assert(csr.numEdges === 4)
    assert(csr.neighborsOf(0).toSeq === Seq(3, 4))
    assert(csr.neighborsOf(3).toSeq === Seq(0, 1))
    assert(csr.neighborsOf(4).toSeq === Seq(0, 2))
    assert(csr.degree(2) === 1)
  }

  test("empty graph") {
    val csr = Csr.fromEdges(4, 2, Iterator.empty)
    assert(csr.numEdges === 0)
    (0 until 4).foreach(v => assert(csr.degree(v) === 0))
  }

  test("edge counts beyond the Int offsets fail loudly") {
    assert(Csr.checkedAdjacencySize(Int.MaxValue / 2) === Int.MaxValue - 1)
    intercept[IllegalArgumentException](Csr.checkedAdjacencySize(Int.MaxValue / 2 + 1))
    intercept[IllegalArgumentException](Csr.fromEdges(2, 3, Iterator.empty))
  }

  test("foreachNeighbor visits exactly the adjacency list") {
    val csr = csrOf(4, Seq(Seq(0, 1), Seq(1, 2, 3)))
    var seen = List.empty[Int]
    csr.foreachNeighbor(1)(seen ::= _)
    assert(seen.reverse === csr.neighborsOf(1).toSeq)
  }

  private def randomGraphs: Seq[Csr] =
    (1 to 25).map(s => randomCsr(2 + s % 19, 1 + s % 6, seed = 1000 + s))

  test("property: total degree equals twice the edge count") {
    randomGraphs.foreach { csr =>
      val totalDegree = (0 until csr.numNodes).map(csr.degree).sum
      assert(totalDegree === 2 * csr.numEdges)
    }
  }

  test("property: adjacency is symmetric") {
    randomGraphs.foreach { csr =>
      for (v <- 0 until csr.numNodes; w <- csr.neighborsOf(v))
        assert(csr.neighborsOf(w).contains(v))
    }
  }

  test("property: bipartite — values only link to attributes") {
    randomGraphs.foreach { csr =>
      for (v <- 0 until csr.numValues)
        assert(csr.neighborsOf(v).forall(_ >= csr.numValues))
      for (a <- csr.numValues until csr.numNodes)
        assert(csr.neighborsOf(a).forall(_ < csr.numValues))
    }
  }

  test("property: adjacency lists are duplicate-free and sorted") {
    randomGraphs.foreach { csr =>
      (0 until csr.numNodes).foreach { v =>
        val n = csr.neighborsOf(v)
        assert(n.toSeq === n.distinct.sorted.toSeq)
      }
    }
  }
}
