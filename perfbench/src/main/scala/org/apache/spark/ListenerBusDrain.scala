package org.apache.spark

/** Waits until every event posted so far has reached the registered
  * listeners. The listener bus is asynchronous, and its drain method is
  * package-private to Spark, hence this one-line accessor in Spark's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
