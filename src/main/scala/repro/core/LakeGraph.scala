package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.lake.DataLake

/** The DomainNet bipartite graph.
  *
  * Node ids are contiguous: value nodes occupy `[0, numValues)` and
  * attribute nodes `[numValues, numValues + numAttrs)`, each block in
  * Spark's string order of the names, so centrality kernels can use dense
  * arrays indexed by node id. The topology lives on the driver as a [[Csr]];
  * the DataFrame views are derived from it on first use.
  *
  * @param valueNames value strings indexed by value id
  * @param attrNames  attribute names indexed by `attrId - numValues`
  * @param csr        the adjacency the centrality kernels read
  */
final class LakeGraph(
    val spark: SparkSession,
    val valueNames: Array[String],
    val attrNames: Array[String],
    val csr: Csr) {

  val numValues: Long = valueNames.length
  val numAttrs: Long = attrNames.length
  val numEdges: Long = csr.numEdges

  def numNodes: Long = numValues + numAttrs

  /** `(value: String, valueId: Long)`, one row per value node. */
  lazy val values: DataFrame = {
    import spark.implicits._
    valueNames.toSeq.zipWithIndex.map { case (v, i) => (v, i.toLong) }.toDF("value", "valueId")
  }

  /** `(attribute: String, attrId: Long)`, one row per attribute node. */
  lazy val attrs: DataFrame = {
    import spark.implicits._
    attrNames.toSeq.zipWithIndex.map { case (a, i) => (a, numValues + i) }.toDF("attribute", "attrId")
  }

  /** `(valueId: Long, attrId: Long)`, the distinct bipartite edges. */
  lazy val edges: DataFrame = {
    import spark.implicits._
    (0 until csr.numValues)
      .flatMap(v => csr.neighborsOf(v).map(a => (v.toLong, a.toLong)))
      .toDF("valueId", "attrId")
  }

  /** Values appearing in at least two attributes — the homograph candidates:
    * `(value, valueId, degree)`.
    */
  def candidateValues: DataFrame = {
    import spark.implicits._
    (0 until csr.numValues).filter(csr.degree(_) >= 2)
      .map(v => (valueNames(v), v.toLong, csr.degree(v).toLong))
      .toDF("value", "valueId", "degree")
  }
}

object LakeGraph {

  /** Normalize a raw cell value the way the paper does: treat it as a
    * single string, trim surrounding whitespace, upper-case it. Empty and
    * null values normalize to null (dropped from the graph).
    */
  val normalizeCol: org.apache.spark.sql.Column => org.apache.spark.sql.Column =
    c => {
      val t = upper(trim(c))
      when(t.isNull || t === "", lit(null)).otherwise(t)
    }

  /** Normalized, non-null cells of a lake: `(attribute, value)`. */
  def normalizedCells(lake: DataLake): DataFrame =
    lake.cells
      .select(col("attribute"), normalizeCol(col("value")).as("value"))
      .filter(col("value").isNotNull)

  /** Spark's `StringType` order: UTF-8 byte order, i.e. code point order.
    * Java's `String.compareTo` compares UTF-16 units instead, which puts
    * characters above U+FFFF before U+E000–U+FFFF.
    */
  private[core] val sparkStringOrdering: Ordering[String] = (a, b) => {
    val n = math.min(a.length, b.length)
    var i = 0
    while (i < n && a.charAt(i) == b.charAt(i)) i += 1
    if (i == n) Integer.compare(a.length, b.length)
    else Integer.compare(a.codePointAt(i), b.codePointAt(i))
  }

  /** Node count of a graph, which must fit the `Int` ids of [[Csr]]. */
  private[core] def checkedNodeCount(numValues: Long, numAttrs: Long): Int = {
    require(numValues + numAttrs <= Int.MaxValue,
      s"$numValues values + $numAttrs attributes exceed the Int node id space")
    (numValues + numAttrs).toInt
  }

  /** Build the bipartite graph with one Spark pass: each task counts the
    * cells of its partitions on its own, without a shuffle, and ids, pruning
    * and the CSR are computed on the driver, where the kernels need the
    * topology anyway.
    *
    * Preprocessing per the paper (§5): values that occur exactly once in
    * the whole lake are dropped — they cannot be homographs and only slow
    * down centrality computation. Values occurring multiple times (even in
    * a single attribute) are kept.
    *
    * @param minOccurrences minimum number of *cells* a value must occupy to
    *                       be kept (paper uses 2)
    */
  def build(lake: DataLake, minOccurrences: Int = 2): LakeGraph = {
    val spark = lake.cells.sparkSession
    import spark.implicits._
    // One task per core: a lake unioned from many small tables has many tiny
    // partitions, and each task costs a result to ship and merge.
    val parts = normalizedCells(lake).select("value", "attribute").as[(String, String)].rdd
      .coalesce(spark.sparkContext.defaultParallelism)
      .mapPartitions(cells => Iterator.single(summarize(cells)))
      .collect()

    // Merge the tasks' dictionaries; a value or a pair may occur in several tasks.
    val values = new Dictionary
    val attrs = new Dictionary
    val valueIndex = parts.map(_.values.map(values.index))
    val attrIndex = parts.map(_.attrs.map(attrs.index))
    val cellCounts = new Array[Long](values.size)
    parts.indices.foreach { p =>
      parts(p).cellCounts.indices.foreach(i => cellCounts(valueIndex(p)(i)) += parts(p).cellCounts(i))
    }
    val pairs = distinctSorted(parts.indices.toArray.flatMap(p =>
      parts(p).pairs.map(k => pairKey(valueIndex(p)(valueOf(k)), attrIndex(p)(attrOf(k))))))

    val kept = pairs.filter(k => cellCounts(valueOf(k)) >= minOccurrences)
    val (valueNames, valueId) = idsByName(values, kept.map(valueOf))
    val (attrNames, attrId) = idsByName(attrs, kept.map(attrOf))
    val nv = valueNames.length
    val n = checkedNodeCount(nv, attrNames.length)
    val csr = Csr.fromEdges(n, nv, kept.iterator.map(k => (valueId(valueOf(k)), nv + attrId(attrOf(k)))))
    new LakeGraph(spark, valueNames, attrNames, csr)
  }

  /** The cells of one task: its distinct value and attribute strings,
    * the number of cells holding each value, and its distinct (value,
    * attribute) pairs as [[pairKey]]s of indices into the two arrays.
    */
  private final class CellSummary(
      val values: Array[String],
      val attrs: Array[String],
      val cellCounts: Array[Long],
      val pairs: Array[Long]) extends Serializable

  private def summarize(cells: Iterator[(String, String)]): CellSummary = {
    val values = new Dictionary
    val attrs = new Dictionary
    val keys = new scala.collection.mutable.ArrayBuilder.ofLong
    cells.foreach { case (v, a) => keys += pairKey(values.index(v), attrs.index(a)) }
    val all = keys.result()
    val cellCounts = new Array[Long](values.size)
    all.foreach(k => cellCounts(valueOf(k)) += 1)
    new CellSummary(values.names.toArray, attrs.names.toArray, cellCounts, distinctSorted(all))
  }

  private def pairKey(value: Int, attr: Int): Long = (value.toLong << 32) | attr
  private def valueOf(key: Long): Int = (key >>> 32).toInt
  private def attrOf(key: Long): Int = key.toInt

  /** Strings indexed in first-seen order. */
  private final class Dictionary {
    private val indices = scala.collection.mutable.HashMap.empty[String, Int]
    val names = scala.collection.mutable.ArrayBuffer.empty[String]
    def index(s: String): Int = indices.getOrElseUpdate(s, { names += s; names.size - 1 })
    def size: Int = names.size
  }

  /** The distinct elements of `xs` in ascending order; sorts `xs` in place. */
  private def distinctSorted(xs: Array[Long]): Array[Long] = {
    java.util.Arrays.sort(xs)
    var n = 0
    xs.foreach(x => if (n == 0 || x != xs(n - 1)) { xs(n) = x; n += 1 })
    java.util.Arrays.copyOf(xs, n)
  }

  /** Ids `[0, k)` for the `k` distinct dictionary indices in `used`, in
    * Spark's string order of their names: the names by id, and the id of
    * every dictionary index (-1 where unused).
    */
  private def idsByName(dict: Dictionary, used: Array[Int]): (Array[String], Array[Int]) = {
    val isUsed = new Array[Boolean](dict.size)
    used.foreach(isUsed(_) = true)
    val byName = dict.names.indices.filter(isUsed).toArray.sortBy(dict.names)(sparkStringOrdering)
    val id = Array.fill(dict.size)(-1)
    byName.indices.foreach(i => id(byName(i)) = i)
    (byName.map(dict.names), id)
  }
}
