package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger
import scala.jdk.CollectionConverters._
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Encoders, Row}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions.max
import org.apache.spark.sql.streaming.StreamingQuery
import repro.SparkSpec
import repro.events.{AttackTrace, SystemEvent}
import repro.saql.Parser
import repro.saql.Ast.SaqlQuery
import TestEvents.{df, file, net}

/** The scheduler's streaming arm: the master copy of each micro-batch fed
  * to the dependents, and only final alerts emitted, once.
  */
class SchedulerStreamSpec extends SparkSpec {

  private lazy val attack = AttackTrace.withBackground(spark, sf = 0.002, seed = 0,
    attackStartMs = 1_800_000L).cache()
  private lazy val demo = repro.queries.DemoQueries.all().map(_._2)

  /** Start a streaming query with an `emit` that records, and `feed` it;
    * the alert lists emitted, in order. The query stops in a `finally`.
    */
  private def emitted(start: (Seq[AlertRecord] => Unit) => StreamingQuery)(
      feed: StreamingQuery => Unit): Seq[Seq[AlertRecord]] = {
    val out = new ConcurrentLinkedQueue[Seq[AlertRecord]]
    val q = start { alerts => out.add(alerts); () }
    try feed(q) finally q.stop()
    out.asScala.toSeq
  }

  /** A `MemoryStream` of events, with nulls where the schema allows them. */
  private def source(): MemoryStream[Row] = MemoryStream[Row](Encoders.row(SystemEvent.schema), spark.sqlContext)

  /** The alerts emitted when `batches` feed a `MemoryStream`, one trigger each. */
  private def streamed(batches: Seq[Seq[Row]], queries: SaqlQuery*): Seq[Seq[AlertRecord]] = {
    val input = source()
    emitted(Scheduler.runStream(input.toDF(), queries)) { q =>
      batches.foreach { b => input.addData(b); q.processAllAvailable() }
    }
  }

  private def rows(evs: Seq[SystemEvent]): Seq[Row] = df(spark, evs).collect().toSeq

  /** The batch arm's alerts over `events` whose windows are closed at the
    * largest `ts` of their master copy.
    */
  private def closed(events: DataFrame, queries: Seq[SaqlQuery]): Seq[AlertRecord] = {
    val watermark = new Dependents(queries.map(Columns.compile)).copy(events).agg(max("ts")).head.getLong(0)
    val alerts = Scheduler.runMasterDependent(events, queries).alerts
    queries.flatMap(q => alerts(q.name)).filter(a => a.win < 0 || a.ts <= watermark)
  }

  private def sameMultiset(a: Seq[AlertRecord], b: Seq[AlertRecord]): Boolean =
    a.map(_.toString).sorted == b.map(_.toString).sorted

  /** `events` in `ts` order, cut into `n` batches of about equal size. */
  private def inOrder(events: Seq[Row], n: Int): Seq[Seq[Row]] = {
    val sorted = events.sortBy(_.getAs[Long]("ts"))
    sorted.grouped(math.ceil(sorted.size.toDouble / n).toInt).toSeq
  }

  private lazy val attackBatches: Seq[Seq[Row]] =
    inOrder(attack.select(SystemEvent.columns.map(attack.col): _*).collect().toSeq, 6)

  test("the 8 demo queries streamed in 6 ts-ordered batches emit the closed windows' batch alerts, each once") {
    assert(attackBatches.size == 6)
    val expected = closed(attack, demo)
    val out = streamed(attackBatches, demo: _*)
    assert(sameMultiset(out.flatten, expected))
    assert(out.size > 1, "alerts come out as the stream unfolds")
    assert(demo.filter(_.modelType == repro.saql.Ast.RuleModel).forall(q => expected.exists(_.query == q.name)))
    assert(expected.exists(_.win >= 0))
  }

  test("each micro-batch runs exactly one Spark job") {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(js: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    val input = source()
    val batches = attackBatches // collected before counting
    emitted(Scheduler.runStream(input.toDF(), demo)) { q =>
      ListenerBusDrain(sc)
      sc.addSparkListener(listener)
      try batches.foreach { b => input.addData(b); q.processAllAvailable() }
      finally {
        ListenerBusDrain(sc)
        sc.removeSparkListener(listener)
      }
    }
    assert(jobs.get == batches.size)
  }

  test("queries that share one window and group keys stream the closed windows' batch alerts, each once") {
    val queries = repro.report.Tables.concurrentQueries(8)
    val expected = closed(attack, queries)
    assert(expected.map(_.query).distinct.size > 1 && expected.forall(_.win >= 0))
    val out = streamed(attackBatches, queries: _*)
    assert(sameMultiset(out.flatten, expected))
    assert(out.size > 1, "alerts come out as the stream unfolds")
  }

  private def evilWrites(name: String, ret: String): SaqlQuery = Parser.parse(
    s"""proc p1["%evil.exe"] write file f1 as evt1
       |return $ret""".stripMargin, name)

  private lazy val evilBatches = Seq(
    Seq(file(0, 1000L, "good.exe", "write", "/tmp/ok"), file(0, 2000L, "evil.exe", "write", "/tmp/loot"),
        file(0, 3000L, "evil.exe", "write", "/tmp/loot2")),
    Seq(file(0, 4000L, "evil.exe", "write", "/tmp/loot"), file(0, 4000L, "evil.exe", "write", "/tmp/loot")))
    .map(rows)

  test("a single-pattern rule without distinct emits every matching event once") {
    val out = streamed(evilBatches, evilWrites("rule_stream", "p1, f1"))
    assert(out.map(_.map(a => a.ts -> a.values("f1"))) == Seq(
      Seq(2000L -> "/tmp/loot", 3000L -> "/tmp/loot2"), Seq(4000L -> "/tmp/loot", 4000L -> "/tmp/loot")))
    assert(out.flatten.forall(_.values("p1") == "evil.exe"))
  }

  test("distinct emits each returned row once, at its earliest detection") {
    val out = streamed(evilBatches, evilWrites("rule_distinct", "distinct p1, f1"))
    assert(out.map(_.map(a => a.ts -> a.values("f1"))) == Seq(Seq(2000L -> "/tmp/loot", 3000L -> "/tmp/loot2")))
  }

  test("a sequence with a shared variable matches across batches") {
    val handOff = Parser.parse(
      """proc p1["%a.exe"] write file f1 as evt1
        |proc p2["%b.exe"] read file f1 as evt2
        |with evt1 -> evt2
        |return distinct p1, p2, f1""".stripMargin, "hand_off")
    val batches = Seq(
      Seq(file(0, 1000L, "a.exe", "write", "/x"), file(0, 1500L, "b.exe", "read", "/y")),
      Seq(file(0, 2000L, "b.exe", "read", "/x")),
      Seq(file(0, 3000L, "b.exe", "read", "/x"))).map(rows)
    val out = streamed(batches, handOff)
    assert(out.map(_.map(a => a.ts -> a.values)) ==
      Seq(Seq(2000L -> Map("p1" -> "a.exe", "p2" -> "b.exe", "f1" -> "/x"))))
  }

  private def windowed(name: String, time: String, field: String): SaqlQuery = Parser.parse(
    s"""proc p write ip i as evt #time($time)
       |state ss { v := $field(evt.amount) } group by p
       |return p, ss.v""".stripMargin, name)

  test("tumbling windows emit each closed window once, as the batch arm computes it") {
    val evs = (0 until 50).map(i => net(0, i * 1000L, s"app${i % 3}.exe", "1.1.1.1", 100L + i))
    val q = windowed("sma_stream", "10 s", "avg")
    val out = streamed(inOrder(rows(evs), 5), q)
    // The watermark ends at 49 s: window 4, [40 s, 50 s), is still open.
    assert(out.flatten.map(_.win).distinct.sorted == Seq(0L, 1L, 2L, 3L))
    assert(out.flatten.size == 12 && sameMultiset(out.flatten, closed(df(spark, evs), Seq(q))))
    assert(out.size == 4, "each window is emitted in the batch that closes it")
  }

  test("sliding windows emit every closed window an event is in") {
    val evs = (0 until 30).map(i => net(0, i * 1000L, "app.exe", "1.1.1.1", 100L))
    val q = windowed("slide_stream", "10 s, 5 s", "count")
    val out = streamed(inOrder(rows(evs), 3), q).flatten
    // Window i is [5i s, 5i + 10 s); at the watermark 29 s windows 0 to 3 are closed.
    assert(out.map(a => a.win -> a.values("ss_v")) == Seq(0L -> "10", 1L -> "10", 2L -> "10", 3L -> "10"))
    assert(sameMultiset(out, closed(df(spark, evs), Seq(q))))
  }

  test("a late event is dropped: it completes no rule match and changes no closed window") {
    val handOff = Parser.parse(
      """proc p1["%a.exe"] write file f1 as evt1
        |proc p2["%b.exe"] read file f1 as evt2
        |with evt1 -> evt2
        |return p1, p2, f1""".stripMargin, "hand_off")
    val count = windowed("per_10s", "10 s", "count")
    val batches = Seq(
      Seq(file(0, 1000L, "a.exe", "write", "/x"), file(0, 5000L, "b.exe", "read", "/y"),
          net(0, 1000L, "a.exe", "1.1.1.1", 1L), net(0, 2000L, "a.exe", "1.1.1.1", 1L),
          net(0, 12000L, "a.exe", "1.1.1.1", 1L)),
      // Below the watermark of 12 s: a write that would precede the read of
      // /y, and a third event in window 0.
      Seq(file(0, 3000L, "a.exe", "write", "/y"), net(0, 3000L, "a.exe", "1.1.1.1", 1L),
          file(0, 13000L, "b.exe", "read", "/x"), net(0, 25000L, "a.exe", "1.1.1.1", 1L)))
    val out = streamed(batches.map(rows), handOff, count)
    def shown(a: AlertRecord) = (a.query, a.ts, a.values.getOrElse("f1", a.values("ss_v")))
    assert(out.map(_.map(shown)) == Seq(
      Seq(("per_10s", 10000L, "2")),
      Seq(("hand_off", 13000L, "/x"), ("per_10s", 20000L, "1"))))
    // Kept, the late events would have changed both queries' alerts.
    val all = Scheduler.runMasterDependent(df(spark, batches.flatten), Seq(handOff, count)).alerts
    assert(all("hand_off").exists(_.values("f1") == "/y") && all("per_10s").head.values("ss_v") == "3")
  }

  test("a JSON file source drives the same path") {
    val dir = java.nio.file.Files.createTempDirectory("sfeed").toString + "/feed"
    val evs = (0 until 40).map(i => net(0, i * 1000L, "app.exe", "1.1.1.1", 20_000L))
    val q = Parser.parse(
      """proc p write ip i as evt #time(10 s)
        |state ss { avg_amount := avg(evt.amount) } group by p
        |alert ss.avg_amount > 10000
        |return p, ss.avg_amount""".stripMargin, "sma_file")
    df(spark, evs).write.json(dir)
    val stream = spark.readStream.schema(SystemEvent.schema).json(dir)
    val out = emitted(Scheduler.runStream(stream, Seq(q)))(_.processAllAvailable()).flatten
    // 40 s of events in 10 s windows; the last one is still open.
    assert(out.map(a => a.win -> a.values("ss_avg_amount")) == Seq(0L -> "20000", 1L -> "20000", 2L -> "20000"))
    assert(sameMultiset(out, closed(df(spark, evs), Seq(q))))
  }

  test("an empty query list emits nothing") {
    assert(streamed(attackBatches.take(2)).isEmpty)
  }
}
