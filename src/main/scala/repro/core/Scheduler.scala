package repro.core

import org.apache.spark.sql.DataFrame
import repro.saql.Ast._

/** The concurrent query scheduler with the paper's master-dependent-query
  * scheme.
  *
  * One run makes one copy of the stream: the events any query could match
  * (the OR of every plan's candidate). That copy is the master's output;
  * every query is a dependent that re-applies its own predicates to it —
  * rule patterns as filters, stateful queries as conditional aggregates —
  * so the stream is scanned once however many queries run.
  *
  * [[ExecStats]] counts what the paper's scheme optimises: stream rows
  * ingested (one full-scan copy per run vs per query) and rows copied
  * onward to the queries.
  */
object Scheduler {

  /** Compile the queries; names must be distinct, as alerts are keyed by name. */
  private def compile(queries: Seq[SaqlQuery]): Seq[QueryPlan] = {
    val names = queries.map(_.name)
    require(names.distinct == names, s"duplicate query names: ${names.diff(names.distinct).distinct.mkString(", ")}")
    queries.map(Columns.compile)
  }

  /** Execution statistics for the T3 comparison. */
  final case class ExecStats(
      queries: Int,
      /** Stream copies made: one per run, or one per query independently. */
      groups: Int,
      /** Full stream scans performed (stream rows x scan count). */
      rowsScanned: Long,
      /** Rows materialised into per-query buffers (the "data copies"). */
      rowsCopied: Long,
      wallMs: Long)

  final case class ScheduledRun(alerts: Map[String, Seq[AlertRecord]],
                                stats: ExecStats)

  /** Baseline arm: every query ingests its own copy of the full stream —
    * how un-shared CEP engines (Siddhi/Esper/Flink jobs) execute
    * concurrent queries.
    */
  def runIndependent(events: DataFrame, queries: Seq[SaqlQuery]): ScheduledRun = {
    val t0 = System.nanoTime()
    val plans = compile(queries)
    val n  = events.count()
    val alerts = plans.map(p => p.name -> QueryEngine.run(events, p)).toMap
    val wall = (System.nanoTime() - t0) / 1_000_000
    ScheduledRun(alerts,
      ExecStats(queries.size, queries.size, n * queries.size,
                n * queries.size, wall))
  }

  /** SAQL arm: one stream copy for all queries; each reads that copy.
    * Stateful queries that share a window and group-key columns run as one
    * state aggregation over it, each re-applying its own predicates as
    * conditional aggregates.
    */
  def runMasterDependent(events: DataFrame, queries: Seq[SaqlQuery]): ScheduledRun = {
    val t0 = System.nanoTime()
    val plans = compile(queries)
    val n  = events.count()
    val copy = StateMaintainer.matchedEvents(events, plans: _*).cache()
    val m = copy.count()
    val (states, rules) = plans.partitionMap {
      case s: StatePlan => Left(s)
      case r: RulePlan  => Right(r)
    }
    val alerts = Map.newBuilder[String, Seq[AlertRecord]]
    rules.foreach(r => alerts += r.name -> QueryEngine.run(copy, r))
    for (split <- states.groupBy(s => (s.window, s.keys.map(_._2))).values)
      alerts ++= split.map(_.name).zip(QueryEngine.runStates(copy, split))
    copy.unpersist()
    // One full scan fills the copy; with several queries, each reads it.
    val copied = n + (if (plans.size > 1) m * plans.size else 0L)
    val wall = (System.nanoTime() - t0) / 1_000_000
    ScheduledRun(alerts.result(),
      ExecStats(queries.size, 1, n, copied, wall))
  }
}
