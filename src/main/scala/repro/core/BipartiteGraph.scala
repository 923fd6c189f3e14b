package repro.core

import org.apache.spark.graphx.{Edge, Graph, VertexId}
import org.apache.spark.sql.functions._

/** Compressed-sparse-row adjacency for the undirected bipartite graph.
  *
  * Node ids follow [[LakeGraph]]: values in `[0, numValues)`, attributes in
  * `[numValues, n)`. The CSR is symmetric (each bipartite edge appears in
  * both endpoints' adjacency lists) so BFS-based kernels need no special
  * casing. Compact enough to broadcast: the paper's largest graph (NYC-EDU,
  * 1.5M nodes / 2.3M edges) is ~28 MB in this form.
  *
  * @param offsets   length `n + 1`; node v's neighbours are
  *                  `neighbors[offsets(v) until offsets(v+1))`
  * @param neighbors flattened adjacency lists, each sorted ascending
  * @param numValues number of value nodes (prefix of the id space)
  */
final case class Csr(offsets: Array[Int], neighbors: Array[Int], numValues: Int)
    extends Serializable {

  def numNodes: Int = offsets.length - 1

  def numAttrs: Int = numNodes - numValues

  /** Number of undirected bipartite edges. */
  def numEdges: Int = neighbors.length / 2

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Iterate node v's neighbours without allocation. */
  @inline def foreachNeighbor(v: Int)(f: Int => Unit): Unit = {
    var i = offsets(v)
    val end = offsets(v + 1)
    while (i < end) { f(neighbors(i)); i += 1 }
  }

  def neighborsOf(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(neighbors, offsets(v), offsets(v + 1))
}

object Csr {

  /** Build a CSR from undirected bipartite edge pairs (valueId, attrId). */
  def fromEdges(n: Int, numValues: Int, edges: Iterator[(Int, Int)]): Csr = {
    require(0 <= numValues && numValues <= n, s"numValues $numValues outside [0, $n]")
    val buf = edges.toArray
    val adj = new Array[Int](checkedAdjacencySize(buf.length))
    val deg = new Array[Int](n)
    buf.foreach { case (v, a) => deg(v) += 1; deg(a) += 1 }
    val offsets = new Array[Int](n + 1)
    var i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val cursor = java.util.Arrays.copyOf(offsets, n)
    buf.foreach { case (v, a) =>
      adj(cursor(v)) = a; cursor(v) += 1
      adj(cursor(a)) = v; cursor(a) += 1
    }
    // Sort each adjacency list for deterministic traversal order.
    i = 0
    while (i < n) {
      java.util.Arrays.sort(adj, offsets(i), offsets(i + 1))
      i += 1
    }
    Csr(offsets, adj, numValues)
  }

  /** Length of the neighbour array for `numEdges` undirected edges, which
    * the `Int` offsets must be able to address.
    */
  private[core] def checkedAdjacencySize(numEdges: Long): Int = {
    require(2 * numEdges <= Int.MaxValue,
      s"$numEdges edges exceed the Int offsets of a CSR (at most ${Int.MaxValue / 2})")
    (2 * numEdges).toInt
  }
}

/** Views of a built [[LakeGraph]]: the CSR the centrality kernels read,
  * and a GraphX graph kept for cross-checking it.
  */
object BipartiteGraph {

  /** The lake graph as a GraphX graph. Vertex attribute is `true` for
    * value nodes, `false` for attribute nodes.
    */
  def toGraphX(g: LakeGraph): Graph[Boolean, Int] = {
    val spark = g.edges.sparkSession
    import spark.implicits._
    val edgeRdd = g.edges
      .select(col("valueId").cast("long"), col("attrId").cast("long"))
      .as[(Long, Long)]
      .rdd
      .map { case (v, a) => Edge(v: VertexId, a: VertexId, 1) }
    val nv = g.numValues
    Graph.fromEdges(edgeRdd, defaultValue = false)
      .mapVertices((id, _) => id < nv)
  }

  /** The CSR built with the graph; the topology already sits on the driver,
    * and the centrality kernels broadcast it.
    */
  def toCsr(g: LakeGraph): Csr = g.csr
}
