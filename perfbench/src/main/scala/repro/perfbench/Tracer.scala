package repro.perfbench

import java.util.concurrent.ConcurrentHashMap

import scala.collection.mutable

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** What one span did: its wall time and the Spark work of the jobs that
  * started while it was open.
  */
final case class SpanTotals(
    s: Double,
    jobs: Long,
    tasks: Long,
    taskS: Double,
    shuffleWriteBytes: Long,
    resultBytes: Long,
    maxTaskS: Double) {

  /** Share of the available cores the span's tasks kept busy. */
  def coreUtil(cores: Int): Double = if (s <= 0) 0.0 else taskS / (s * cores)

  def metrics(cores: Int): Seq[(String, Double, String)] = Seq(
    ("s", s, "s"),
    ("jobs", jobs.toDouble, "count"),
    ("tasks", tasks.toDouble, "count"),
    ("task_s", taskS, "s"),
    ("shuffle_write_bytes", shuffleWriteBytes.toDouble, "bytes"),
    ("result_bytes", resultBytes.toDouble, "bytes"),
    ("max_task_s", maxTaskS, "s"),
    ("core_util", coreUtil(cores), "ratio"))
}

/** Spans recorded from outside the program: the benchmark wraps each call
  * into a module's public function in [[span]]. A SparkListener attributes
  * every job to the span that was open when the job was submitted, through a
  * thread-local Spark property that the job carries in its start event, so
  * the attribution holds although listener events arrive asynchronously.
  * Spans are flat and kept in memory until [[totals]].
  */
final class Tracer(spark: SparkSession) extends SparkListener {
  import Tracer._

  private final class Acc {
    var jobs = 0L
    var tasks = 0L
    var taskMs = 0L
    var shuffleWriteBytes = 0L
    var resultBytes = 0L
    var maxTaskMs = 0L
  }

  private val sc = spark.sparkContext
  private val stageSpan = new ConcurrentHashMap[Int, String]()
  private val work = mutable.LinkedHashMap.empty[String, Acc]
  private val wall = mutable.LinkedHashMap.empty[String, Double]

  sc.addSparkListener(this)

  private def acc(name: String): Acc = work.synchronized(work.getOrElseUpdate(name, new Acc))

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val name = Option(e.properties).map(_.getProperty(SpanProperty)).orNull
    if (name != null) {
      e.stageIds.foreach(stageSpan.put(_, name))
      val a = acc(name)
      a.synchronized(a.jobs += 1)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val name = stageSpan.get(e.stageId)
    if (name != null && e.taskMetrics != null) {
      val m = e.taskMetrics
      val a = acc(name)
      a.synchronized {
        a.tasks += 1
        a.taskMs += m.executorRunTime
        a.maxTaskMs = math.max(a.maxTaskMs, m.executorRunTime)
        a.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        a.resultBytes += m.resultSize
      }
    }
  }

  /** Run `body` as span `name`; its jobs are attributed to `name`. */
  def span[A](name: String)(body: => A): A = {
    require(!wall.contains(name), s"span $name recorded twice")
    sc.setLocalProperty(SpanProperty, name)
    val t0 = System.nanoTime()
    try body
    finally {
      wall(name) = (System.nanoTime() - t0) / 1e9
      sc.setLocalProperty(SpanProperty, null)
    }
  }

  /** Totals per span in the order the spans ran. Waits for every pending
    * listener event first, then detaches the listener.
    */
  def totals(): Seq[(String, SpanTotals)] = {
    ListenerBusDrain(sc)
    sc.removeSparkListener(this)
    wall.toSeq.map { case (name, s) =>
      val a = work.getOrElse(name, new Acc)
      name -> SpanTotals(s, a.jobs, a.tasks, a.taskMs / 1e3, a.shuffleWriteBytes,
        a.resultBytes, a.maxTaskMs / 1e3)
    }
  }
}

object Tracer {
  val SpanProperty = "perfbench.span"

  /** A score span's time outside the kernel it calls, where the kernel's
    * time comes from calling the kernel alone with identical arguments.
    */
  def selfTime(score: SpanTotals, kernel: SpanTotals): Double = score.s - kernel.s
}
