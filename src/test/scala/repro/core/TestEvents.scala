package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.events.SystemEvent
import repro.saql.Ast.SaqlQuery

/** Hand-crafted event streams for deterministic engine-semantics tests, and
  * typed access to compiled plans.
  */
object TestEvents {

  private var id = 0L
  private def nextId(): Long = { id += 1; id }

  def net(agent: Long, ts: Long, subj: String, dstIp: String, amount: Long,
          op: String = "write", pid: Long = 1L): SystemEvent =
    SystemEvent(nextId(), agent, ts, "network", subj, pid, op, null, null, -1L,
      "10.0.0.50", 40000L, dstIp, 443L, amount)

  def start(agent: Long, ts: Long, parent: String, child: String,
            ppid: Long = 1L, cpid: Long = 2L): SystemEvent =
    SystemEvent(nextId(), agent, ts, "process", parent, ppid, "start", null,
      child, cpid, null, -1L, null, -1L, 0L)

  def file(agent: Long, ts: Long, subj: String, op: String, name: String,
           amount: Long = 100L, pid: Long = 1L): SystemEvent =
    SystemEvent(nextId(), agent, ts, "file", subj, pid, op, name, null, -1L,
      null, -1L, null, -1L, amount)

  def df(spark: SparkSession, events: Seq[SystemEvent]): DataFrame = {
    import spark.implicits._
    events.toDF()
  }

  def rulePlan(q: SaqlQuery): RulePlan = Columns.compile(q).asInstanceOf[RulePlan]

  def statePlan(q: SaqlQuery): StatePlan = Columns.compile(q).asInstanceOf[StatePlan]
}
