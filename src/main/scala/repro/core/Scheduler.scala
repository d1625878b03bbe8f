package repro.core

import java.util.concurrent.{ExecutionException, Executors}
import scala.util.{Failure, Try}
import org.apache.spark.sql.{DataFrame, Observation, SparkSession, classic}
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.functions.{col, count, lit}
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
    * conditional aggregates. The copy keeps only the columns some plan
    * reads, and the job that fills it also counts the stream. Once it is
    * filled, the rule queries and the state aggregations run concurrently.
    */
  def runMasterDependent(events: DataFrame, queries: Seq[SaqlQuery]): ScheduledRun = {
    val t0 = System.nanoTime()
    val plans = compile(queries)
    val reads = plans.flatMap(_.reads).toSet
    val input = Observation()
    val copy = StateMaintainer.matchedEvents(events.observe(input, count(lit(1)).as("n")), plans: _*)
      .select(events.columns.toSeq.filter(reads).map(col): _*).cache()
    try {
      val m = copy.count()
      // Without plans the filter is `false`: Spark reads no row, and observes none.
      val n = input.get.getOrElse("n", 0L).asInstanceOf[Long]
      val (states, rules) = plans.partitionMap {
        case s: StatePlan => Left(s)
        case r: RulePlan  => Right(r)
      }
      val consumers: Seq[() => Seq[(String, Seq[AlertRecord])]] =
        rules.map(r => () => Seq(r.name -> QueryEngine.run(copy, r))) ++
          states.groupBy(s => (s.window, s.keys.map(_._2))).values.toSeq
            .map(split => () => split.map(_.name).zip(QueryEngine.runStates(copy, split)))
      val alerts = concurrently(copy.sparkSession, consumers).flatten.toMap
      // One full scan fills the copy; with several queries, each reads it.
      val copied = n + (if (plans.size > 1) m * plans.size else 0L)
      val wall = (System.nanoTime() - t0) / 1_000_000
      ScheduledRun(alerts, ExecStats(queries.size, 1, n, copied, wall))
    } finally copy.unpersist()
  }

  /** Run the tasks on a pool of at most `defaultParallelism` threads that
    * carry the caller's Spark local properties (job group, description,
    * scheduler pool), wait for all of them, and rethrow the first failure.
    */
  private def concurrently[A](spark: SparkSession, tasks: Seq[() => A]): Seq[A] = {
    val session = spark.asInstanceOf[classic.SparkSession]
    val pool = Executors.newFixedThreadPool(
      math.max(1, math.min(tasks.size, session.sparkContext.defaultParallelism)))
    try {
      val results = tasks.map(t => SQLExecution.withThreadLocalCaptured(session, pool)(t()))
        .map(f => Try(f.get()))
      results.collectFirst { case Failure(e: ExecutionException) => throw e.getCause }
      results.map(_.get)
    } finally pool.shutdown()
  }
}
