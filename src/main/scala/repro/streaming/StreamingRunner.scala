package repro.streaming

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{EventMatcher, RulePlan, StateMaintainer, StatePlan}

/** Structured Streaming execution of compiled SAQL plans — the repro's
  * "real-time event feed" path (the paper runs on Siddhi CEP; here the same
  * operators run as Structured Streaming queries).
  *
  * Two shapes are covered:
  *   - single-pattern rule queries: the pattern predicate is a streaming
  *     filter + projection (alerts stream out per event);
  *   - windowed stateful computation: `state { … } group by` becomes a
  *     sliding `window()` aggregation with a watermark, in the same layout
  *     as the batch [[StateMaintainer.states]].
  * Multi-pattern sequence queries and alert evaluation run in batch only.
  */
object StreamingRunner {

  /** Streaming single-pattern rule alerts with the query's return
    * projection (not de-duplicated: each matching event is an alert).
    */
  def ruleAlerts(stream: DataFrame, plan: RulePlan): DataFrame = {
    require(plan.patterns.size == 1,
      s"streaming rule path handles single-pattern queries; '${plan.name}' has ${plan.patterns.size}")
    EventMatcher.matches(stream, plan).select(plan.returnColumns: _*)
  }

  /** Sliding-window streaming aggregation computing the query's state
    * block: `window()` over event time with the query's length/slide and a
    * zero-lateness watermark. It runs the batch state aggregation, so its
    * columns are the batch [[StateMaintainer.states]] layout (with `__win`
    * last) and batch and streaming states are directly comparable (and
    * are, in tests).
    */
  def windowStates(stream: DataFrame, plan: StatePlan): DataFrame = {
    val w = plan.window
    val events = StateMaintainer.matchedEvents(stream, plan)
      .withColumn("__event_time", timestamp_millis(col("ts")))
      .withWatermark("__event_time", "0 milliseconds")
    val winCol = window(col("__event_time"), s"${w.lengthMs} milliseconds",
                        s"${w.slideMs} milliseconds")
    StateMaintainer.aggregate(events, winCol.as("__window"), plan)
      .withColumn("__win",
        floor(unix_millis(col("__window.start")) / w.slideMs))
      .drop("__window")
      // Overlapping windows that start before the stream epoch have no
      // batch counterpart (window indices begin at 0); drop them.
      .filter(col("__win") >= 0)
  }
}
