package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart, SparkPlanGraph}

/** One Spark SQL execution seen during a traced operation: a child span of
  * the operation span, with the Spark work its jobs did and the rows its
  * plan nodes produced (read from the SQL status store's plan graph).
  */
final case class ExecSpan(
    id: Long,
    /** Root execution id (equal to `id` unless the execution is nested). */
    root: Long,
    op: Int,
    /** Call-site description, e.g. `collect at StateMaintainer.scala:77`. */
    desc: String,
    startMs: Long,
    endMs: Long,
    jobs: Int,
    stages: Int,
    tasks: Long,
    taskMs: Long,
    shuffleWriteBytes: Long,
    /** "number of output rows" summed per node kind: Filter, join, aggregate, scan. */
    rows: Map[String, Long],
    /** Output rows of the plan node nearest the root: what the action returns. */
    resultRows: Long,
) {
  /** The engine layer this execution belongs to, by the source file of its call site. */
  def layer: String = Tracer.layerOf(desc)
}

/** Operation span: one benchmark operation and the SQL executions inside it. */
final case class OpSpan(op: Int, name: String, startMs: Long, endMs: Long,
                        wallS: Double, execs: Seq[ExecSpan])

object Tracer {
  def layerOf(desc: String): String =
    if (desc.contains("Scheduler.scala")) "scheduler"
    else if (desc.contains("StateMaintainer.scala")) "state"
    else if (desc.contains("QueryEngine.scala") || desc.contains("EventMatcher.scala")) "matcher"
    else "other"

  private def nodeKind(name: String): Option[String] = name match {
    case "Filter"                                        => Some("filter")
    case n if n.endsWith("Join") || n == "CartesianProduct" => Some("join")
    case n if n.endsWith("Aggregate")                    => Some("aggregate")
    case "InMemoryTableScan"                             => Some("scan")
    case _                                               => None
  }

  private def parseCount(s: String): Long = {
    // Sum metrics render as "1,234"; keep the leading number only.
    val digits = s.trim.takeWhile(c => c.isDigit || c == ',').filter(_.isDigit)
    if (digits.isEmpty) 0L else digits.toLong
  }

  /** Rows per node kind, and the rows of the node nearest the root. */
  def planRows(graph: SparkPlanGraph, values: Map[Long, String]): (Map[String, Long], Long) = {
    val nodes = graph.allNodes
    def outRows(n: org.apache.spark.sql.execution.ui.SparkPlanGraphNode): Option[Long] =
      n.metrics.find(_.name == "number of output rows")
        .flatMap(m => values.get(m.accumulatorId)).map(parseCount)
    val byKind = mutable.Map.empty[String, Long].withDefaultValue(0L)
    for (n <- nodes; k <- nodeKind(n.name); r <- outRows(n)) byKind(k) += r
    // Edges point child -> parent; walk down from the roots breadth-first.
    val children = graph.edges.groupBy(_.toId).view.mapValues(_.map(_.fromId)).toMap
    val childIds = graph.edges.map(_.fromId).toSet
    val byId = nodes.map(n => n.id -> n).toMap
    var frontier = nodes.map(_.id).filterNot(childIds).toSeq
    var result: Option[Long] = None
    while (result.isEmpty && frontier.nonEmpty) {
      val found = frontier.flatMap(id => byId.get(id).flatMap(outRows))
      if (found.nonEmpty) result = Some(found.sum)
      else frontier = frontier.flatMap(id => children.getOrElse(id, Nil))
    }
    (byKind.toMap, result.getOrElse(0L))
  }
}

/** Spark listener that records job, stage and task work per SQL execution.
  * It is registered only around traced operations ([[begin]] .. [[record]]).
  * Spans are kept in memory and written out when the benchmark ends.
  */
final class Tracer(spark: org.apache.spark.sql.SparkSession) extends SparkListener {
  private final class Work {
    var jobs = 0; var stages = 0; var tasks = 0L; var taskMs = 0L; var shuffleWrite = 0L
  }
  private val sc: SparkContext = spark.sparkContext
  private val started = new ConcurrentHashMap[Long, (Long, String, Long)]() // id -> (root, desc, start)
  private val ended = new ConcurrentHashMap[Long, Long]()
  private val work = new ConcurrentHashMap[Long, Work]()
  private val stageExec = new ConcurrentHashMap[Int, Long]()
  private val statusStore =
    spark.asInstanceOf[org.apache.spark.sql.classic.SparkSession].sharedState.statusStore
  // LiveListenerBus.waitUntilEmpty is Spark-internal; it is the only exact
  // way to know every event of an operation has reached the listeners.
  private val bus = classOf[SparkContext].getMethod("listenerBus").invoke(sc)
  private val waitMethod = bus.getClass.getMethod("waitUntilEmpty", classOf[Long])

  val ops = mutable.ArrayBuffer.empty[OpSpan]

  /** Open an operation span: start listening. */
  def begin(): Unit = sc.addSparkListener(this)

  /** Block until every posted Spark event has been delivered. */
  private def drain(): Unit = waitMethod.invoke(bus, java.lang.Long.valueOf(30000L))

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case s: SparkListenerSQLExecutionStart =>
      started.put(s.executionId, (s.rootExecutionId.getOrElse(s.executionId), s.description, s.time))
    case e: SparkListenerSQLExecutionEnd => ended.put(e.executionId, e.time)
    case _ =>
  }

  override def onJobStart(js: SparkListenerJobStart): Unit = {
    val exec = Option(js.properties).flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
      .map(_.toLong).getOrElse(-1L)
    work.computeIfAbsent(exec, _ => new Work).jobs += 1
    js.stageIds.foreach(s => stageExec.put(s, exec))
  }

  override def onStageCompleted(sc: SparkListenerStageCompleted): Unit = {
    val info = sc.stageInfo
    val w = work.computeIfAbsent(stageExec.getOrDefault(info.stageId, -1L), _ => new Work)
    w.stages += 1
    w.tasks += info.numTasks
    Option(info.taskMetrics).foreach { m =>
      w.taskMs += m.executorRunTime
      w.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Close the span of operation `op`: stop listening and collect the SQL
    * executions seen since [[begin]], with their work and plan rows.
    */
  def record(op: Int, name: String, startMs: Long, endMs: Long, wallS: Double): OpSpan = {
    drain()
    sc.removeSparkListener(this)
    val ids = started.asScala.keys.toSeq.sorted
    val execs = ids.map { id =>
      val (root, desc, t0) = started.get(id)
      val w = Option(work.get(id)).getOrElse(new Work)
      val values = statusStore.execution(id).map(_.metricValues).filter(_ != null)
        .getOrElse(statusStore.executionMetrics(id))
      val (rows, result) = Tracer.planRows(statusStore.planGraph(id),
        values.map { case (k, v) => k.asInstanceOf[Long] -> v })
      ExecSpan(id, root, op, desc, t0, Option(ended.get(id)).getOrElse(endMs),
        w.jobs, w.stages, w.tasks, w.taskMs, w.shuffleWrite, rows, result)
    }
    started.clear(); ended.clear(); work.clear(); stageExec.clear()
    val span = OpSpan(op, name, startMs, endMs, wallS, execs)
    ops += span
    span
  }

  /** Spans as JSON lines: one per operation, then one per SQL execution. */
  def jsonLines: Seq[String] = ops.toSeq.flatMap { o =>
    s"""{"span":"op","op":${o.op},"name":"${o.name}","start_ms":${o.startMs},"end_ms":${o.endMs},"wall_s":${o.wallS}}""" +:
      o.execs.map { e =>
        val rows = e.rows.map { case (k, v) => s""""$k":$v""" }.mkString(",")
        s"""{"span":"sql","op":${e.op},"id":${e.id},"root":${e.root},"layer":"${e.layer}",""" +
          s""""desc":"${e.desc.replace("\"", "'")}","start_ms":${e.startMs},"end_ms":${e.endMs},""" +
          s""""jobs":${e.jobs},"stages":${e.stages},"tasks":${e.tasks},"task_ms":${e.taskMs},""" +
          s""""shuffle_write_bytes":${e.shuffleWriteBytes},"rows":{$rows},"result_rows":${e.resultRows}}"""
      }
  }
}
