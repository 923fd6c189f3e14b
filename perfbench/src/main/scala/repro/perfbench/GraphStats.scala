package repro.perfbench

import scala.collection.immutable.ArraySeq

import repro.core.Csr

/** Exact statistics of a returned [[Csr]], computed outside the program.
  *
  * @param valueClasses distinct attribute sets among value nodes: the node
  *                     count of the value side of the twin quotient
  * @param components   connected components, isolated nodes included
  * @param giantNodes   nodes in the largest component
  */
final case class GraphStats(
    values: Int,
    attrs: Int,
    edges: Int,
    valueClasses: Int,
    components: Int,
    giantNodes: Int,
    csrBytes: Long) {

  def classRatio: Double = values.toDouble / math.max(1, valueClasses)

  def giantFrac: Double = giantNodes.toDouble / math.max(1, values + attrs)

  /** Upper bound on adjacency entries Brandes reads from `sources` sources:
    * each BFS and each backward sweep reads every adjacency entry at most
    * once, and the CSR holds 2m entries.
    */
  def traversalBound(sources: Int): Double = sources.toDouble * 2 * edges
}

object GraphStats {

  def of(csr: Csr): GraphStats = {
    val n = csr.numNodes
    val classes = new java.util.HashSet[ArraySeq[Int]]()
    var v = 0
    while (v < csr.numValues) {
      classes.add(ArraySeq.unsafeWrapArray(csr.neighborsOf(v)))
      v += 1
    }

    // Union-find over the edge list.
    val parent = Array.range(0, n)
    def find(x: Int): Int = {
      var r = x
      while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }
      r
    }
    v = 0
    while (v < n) {
      csr.foreachNeighbor(v) { w =>
        val a = find(v); val b = find(w)
        if (a != b) parent(a) = b
      }
      v += 1
    }
    val size = new Array[Int](n)
    v = 0
    while (v < n) { size(find(v)) += 1; v += 1 }
    val components = (0 until n).count(i => parent(i) == i)

    GraphStats(
      values = csr.numValues,
      attrs = csr.numAttrs,
      edges = csr.numEdges,
      valueClasses = classes.size,
      components = components,
      giantNodes = if (n == 0) 0 else size.max,
      csrBytes = 4L * (csr.offsets.length + csr.neighbors.length))
  }
}
