package repro.events

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The paper's stream replayer: the demo stores monitoring data in
  * databases and replays it as a data stream, selecting hosts and a
  * start/end time (Fig. 4's web UI, here as an API): a bounded batch view
  * of the selected hosts and interval (what the anomaly query engine
  * consumes; events are not sorted).
  */
object StreamReplayer {

  /** Host + time-range selection, as in the replayer UI. */
  def select(events: DataFrame, agents: Seq[Long] = Nil,
             startMs: Long = 0L, endMs: Long = Long.MaxValue): DataFrame = {
    val inRange = events.filter(col("ts") >= startMs && col("ts") < endMs)
    if (agents.isEmpty) inRange
    else inRange.filter(col("agentid").isin(agents: _*))
  }
}
