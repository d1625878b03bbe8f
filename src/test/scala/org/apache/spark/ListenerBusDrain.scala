package org.apache.spark

/** Test access to Spark's package-private listener bus: block until every
  * event posted so far has reached its listeners.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
