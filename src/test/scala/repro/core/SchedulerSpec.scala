package repro.core

import java.util.concurrent.{ConcurrentLinkedQueue, Executors}
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._
import scala.jdk.CollectionConverters._
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.{QueryExecution, WholeStageCodegenExec}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.debug.codegenStringSeq
import org.apache.spark.sql.functions.{col, lit, udf, when}
import repro.SparkSpec
import repro.events.{AttackTrace, MonitoringData}
import repro.saql.Parser
import repro.saql.Ast.SaqlQuery
import TestEvents.{df, file, net}

/** Master-dependent-query scheme: one stream copy per run, result
  * equality and data-copy accounting.
  */
class SchedulerSpec extends SparkSpec {

  private lazy val stream = MonitoringData.events(spark, sf = 0.002, seed = 2).cache()
  private lazy val attack = AttackTrace.withBackground(spark, sf = 0.002, seed = 0,
    attackStartMs = 1_800_000L).cache()
  private lazy val demo = repro.queries.DemoQueries.all().map(_._2)

  private def netQuery(name: String, exe: String): SaqlQuery = Parser.parse(
    s"""proc p["%$exe"] write ip i as evt #time(10 min)
       |state ss { amt := sum(evt.amount) } group by p
       |alert ss.amt > 0
       |return p, ss.amt""".stripMargin, name)

  private val master = Parser.parse(
    """proc p write ip i as evt #time(10 min)
      |state ss { amt := sum(evt.amount) } group by p
      |alert ss.amt > 0
      |return p, ss.amt""".stripMargin, "net_all")

  private val deps = Seq("chrome.exe", "outlook.exe", "sqlservr.exe", "apache.exe")
    .map(e => netQuery(s"net_$e", e))

  test("master-dependent alerts equal independent alerts") {
    val queries = master +: deps
    val ind = Scheduler.runIndependent(stream, queries)
    val mdq = Scheduler.runMasterDependent(stream, queries)
    assert(ind.alerts.keySet == mdq.alerts.keySet)
    for (name <- ind.alerts.keySet)
      assert(ind.alerts(name) == mdq.alerts(name), s"alerts differ for $name")
  }

  test("union-master groups also preserve alerts") {
    val ind = Scheduler.runIndependent(stream, deps)
    val mdq = Scheduler.runMasterDependent(stream, deps)
    for (name <- ind.alerts.keySet)
      assert(ind.alerts(name) == mdq.alerts(name), s"alerts differ for $name")
  }

  test("scheme reduces stream scans by the grouping factor") {
    val queries = master +: deps // 5 queries, 1 group
    val n = stream.count()
    val ind = Scheduler.runIndependent(stream, queries)
    val mdq = Scheduler.runMasterDependent(stream, queries)
    assert(ind.stats.rowsScanned == 5 * n)
    assert(mdq.stats.rowsScanned == n)
    assert(mdq.stats.groups == 1 && ind.stats.groups == 5)
  }

  test("scheme reduces data copies (dependents read master output only)") {
    val queries = master +: deps
    val n = stream.count()
    val ind = Scheduler.runIndependent(stream, queries)
    val mdq = Scheduler.runMasterDependent(stream, queries)
    assert(ind.stats.rowsCopied == 5 * n)
    assert(mdq.stats.rowsCopied < ind.stats.rowsCopied)
  }

  test("rule queries detect the same attack under both schemes") {
    val qs = Seq(
      repro.queries.DemoQueries.r1InitialCompromise(0L),
      repro.queries.DemoQueries.r3PrivilegeEscalation(0L))
    val ind = Scheduler.runIndependent(attack, qs)
    val mdq = Scheduler.runMasterDependent(attack, qs)
    assert(ind.alerts == mdq.alerts)
    assert(ind.alerts.values.forall(_.nonEmpty))
  }

  test("all 8 demo queries raise the same alerts from one copy as independently") {
    val ind = Scheduler.runIndependent(attack, demo).alerts
    assert(demo.filter(_.modelType == repro.saql.Ast.RuleModel).forall(q => ind(q.name).nonEmpty))
    // Every run must give the same alerts.
    for (run <- 1 to 3)
      assert(Scheduler.runMasterDependent(attack, demo).alerts == ind, s"run $run")
  }

  test("the 8 demo queries count the input and one copy, nothing more") {
    val (_, actions) = sqlExecutions(Scheduler.runMasterDependent(attack, demo))
    // One collect makes the copy and counts the input; the dependents run on the driver.
    assert(actions == Seq("collect"), actions)
  }

  /** The 8 demo queries on each of `k` (victim, db) host pairs, named apart. */
  private def onHosts(k: Int): Seq[SaqlQuery] = (0 until k).flatMap(h =>
    repro.queries.DemoQueries.all(victim = 2L * h, db = 2L * h + 1).map(_._2).map(q => q.copy(name = s"${q.name}_h$h")))

  test("every whole-stage method of the demo queries' master copy is small enough to JIT-compile") {
    // The demo queries alone, and on 3 host pairs (24 queries).
    for (queries <- Seq(demo, onHosts(3))) {
      val copy = new Dependents(queries.map(Columns.compile)).copy(attack)
      val stats = codegenStringSeq(copy.queryExecution.executedPlan).map(_._3.maxMethodCodeSize)
      // HotSpot never JIT-compiles a method above 8 000 bytes of bytecode
      // (HugeMethodLimit): the copy's per-row code would run interpreted.
      assert(stats.nonEmpty && stats.forall(b => b > 0 && b < 8000), (queries.size, stats))
    }
  }

  test("the copy is as wide for the demo queries on 4 host pairs as on one: their reads and one atom word") {
    def columns(queries: Seq[SaqlQuery]): Seq[String] = new Dependents(queries.map(Columns.compile)).copy(attack).columns.toSeq
    val reads = demo.map(Columns.compile).flatMap(_.reads).toSet
    assert(columns(onHosts(1)) == attack.columns.toSeq.filter(reads) :+ "__atoms0")
    assert(columns(onHosts(4)) == columns(onHosts(1)))
  }

  test("the copy's layout comes from the schema, not from the input's column order") {
    val reversed = attack.select(attack.columns.reverse.toSeq.map(col): _*)
    assert(reversed.columns.toSeq != attack.columns.toSeq)
    val dependents = new Dependents(demo.map(Columns.compile))
    assert(dependents.copy(reversed).columns.toSeq == dependents.copy(attack).columns.toSeq)
    val alerts = Scheduler.runMasterDependent(attack, demo).alerts
    assert(alerts.values.exists(_.nonEmpty))
    assert(Scheduler.runMasterDependent(reversed, demo).alerts == alerts)
  }

  test("the factored filter keeps exactly the rows of the flat OR of the patterns") {
    def ids(events: DataFrame, plans: Seq[QueryPlan]): (Seq[Long], Seq[Long]) = {
      val flat = plans.flatMap(_.conjunctions).map(Atom.all).reduce(_ || _)
      def sorted(d: DataFrame) = d.select("event_id").collect().map(_.getLong(0)).toSeq.sorted
      (sorted(events.filter(Atom.any(plans.flatMap(_.conjunctions)))), sorted(events.filter(flat)))
    }
    val (demoRows, demoFlat) = ids(attack, demo.map(Columns.compile))
    assert(demoRows.nonEmpty && demoRows == demoFlat)
    // Null names, addresses and amounts: both forms drop a row whose test is null.
    val nullable = Seq(
      "proc p[\"%a.exe\"] write file f[\"%/x\"] as evt\nreturn p, f",
      "proc p[\"%a.exe\"] write file f[name != \"/y\"] as evt\nreturn p, f",
      "proc p read || write file f[name != \"/x\"] as evt\nreturn p, f",
      "proc p write ip i[dstip = \"1.1.1.1\"] as evt\nreturn p, i",
      "amount > 50\nproc p[\"%b.exe\"] write ip i as evt\nreturn p, i",
      "amount <= 50\nproc p write ip i[dstip != \"2.2.2.2\"] as evt\nreturn p, i")
      .zipWithIndex.map { case (src, k) => Columns.compile(Parser.parse(src, s"q$k")) }
    val evs = Seq(
      file(0, 1000L, "a.exe", "write", null), file(0, 2000L, null, "write", "/x"),
      file(0, 3000L, "a.exe", "write", "/x"), file(0, 4000L, "b.exe", "read", null),
      file(0, 5000L, "a.exe", "write", "/y"), net(0, 6000L, "a.exe", null, 100),
      net(0, 7000L, "b.exe", "1.1.1.1", -1), net(0, 8000L, null, "2.2.2.2", 10),
      net(0, 9000L, "b.exe", null, 60), net(0, 10000L, "c.exe", "3.3.3.3", -1))
    // -1 stands for a null amount.
    val events = df(spark, evs).withColumn("amount",
      when(col("amount") >= 0, col("amount")).otherwise(lit(null).cast("long")))
    for (plans <- Seq(nullable, nullable.reverse, nullable.take(2), demo.map(Columns.compile) ++ nullable)) {
      val (rows, flat) = ids(events, plans)
      assert(rows == flat, plans.map(_.name))
    }
    assert(ids(events, nullable)._1.nonEmpty)
  }

  test("every job of a run carries the caller's job group") {
    val sc = spark.sparkContext
    val groups = new ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(js: SparkListenerJobStart): Unit =
        groups.add(String.valueOf(js.properties.getProperty("spark.jobGroup.id")))
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    sc.setJobGroup("saql-run", "scheduler job group test")
    try Scheduler.runMasterDependent(attack, demo)
    finally {
      sc.clearJobGroup()
      ListenerBusDrain(sc)
      sc.removeSparkListener(listener)
    }
    assert(!groups.isEmpty && groups.asScala.forall(_ == "saql-run"), groups)
  }

  test("a failing run rethrows its failure and leaves no cached copy") {
    val boom = udf((x: Long) => if (x >= 0) throw new IllegalStateException("boom") else x)
    def cached: Int = spark.sparkContext.getPersistentRDDs.size
    val queries = repro.queries.DemoQueries.r1InitialCompromise(0L) +: master +: deps
    // One partition, so each failure is one failed task in the log.
    val one = stream.coalesce(1)
    one.count()
    // The UDF fails the job that fills the copy; the sum overflows in a state aggregation.
    for ((input, cause) <- Seq(one.withColumn("amount", boom(col("amount"))) -> "boom",
                               one.withColumn("amount", lit(Long.MaxValue)) -> "overflow")) {
      val before = cached
      val e = intercept[Exception](Scheduler.runMasterDependent(input, queries))
      val messages = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage)
      assert(messages.exists(m => m != null && m.contains(cause)), e)
      assert(cached == before)
    }
  }

  test("a good run after a failing one returns the right alerts") {
    val queries = repro.queries.DemoQueries.r1InitialCompromise(0L) +: master +: deps
    val boom = udf((x: Long) => if (x >= 0) throw new IllegalStateException("boom") else x)
    val reference = Scheduler.runIndependent(stream, queries).alerts
    assert(Scheduler.runMasterDependent(stream, queries).alerts == reference)
    // One partition, so the failure is one failed task in the log.
    intercept[Exception](Scheduler.runMasterDependent(stream.coalesce(1).withColumn("amount", boom(col("amount"))), queries))
    assert(Scheduler.runMasterDependent(stream, queries).alerts == reference)
  }

  // ------------------------------------------------ a planned copy reused

  /** The one collect of a master-dependent run, and the run. */
  private def collected(events: DataFrame, queries: Seq[SaqlQuery]): (Scheduler.ScheduledRun, QueryExecution) = {
    val (run, executions) = queryExecutions(Scheduler.runMasterDependent(events, queries))
    assert(executions.map(_._1) == Seq("collect"), executions.map(_._1))
    (run, executions.head._2)
  }

  private def scansCache(qe: QueryExecution): Boolean = qe.executedPlan.exists(_.isInstanceOf[InMemoryTableScanExec])

  test("a second run of the same queries over the same input collects the first run's planned copy") {
    val (first, planned) = collected(attack, demo)
    val (second, reused) = collected(attack, demo)
    assert(reused eq planned)
    assert(second.alerts == first.alerts && second.stats.rowsScanned == first.stats.rowsScanned)
    assert(second.stats.rowsScanned == attack.count())
  }

  test("runs over inputs A, B and A again each equal the independent run on their own input") {
    // B reads A's cache, so only the input's plan tells them apart.
    val withoutDb = attack.filter(col("agentid") =!= 1L)
    val runs = for (input <- Seq(attack, withoutDb, attack)) yield {
      val (run, _) = collected(input, demo)
      assert(run.alerts == Scheduler.runIndependent(input, demo).alerts)
      assert(run.stats.rowsScanned == input.count())
      run
    }
    assert(runs(0).alerts != runs(1).alerts && runs(0).stats.rowsScanned != runs(1).stats.rowsScanned)
    assert(runs(2).alerts == runs(0).alerts)
  }

  test("caching, uncaching or re-caching the input between runs plans a fresh copy over it") {
    val sc = spark.sparkContext
    // A seed no other suite caches, so the input starts uncached.
    val input = MonitoringData.events(spark, sf = 0.002, seed = 41)
    val queries = master +: deps
    val reference = Scheduler.runIndependent(input, queries)
    val uncached = sc.getPersistentRDDs.size
    def run(): QueryExecution = {
      val (r, qe) = collected(input, queries)
      assert(r.alerts == reference.alerts)
      qe
    }
    assert(!scansCache(run()))
    input.cache()
    try {
      val onCache = run()
      assert(scansCache(onCache) && sc.getPersistentRDDs.size == uncached + 1)
      input.unpersist(blocking = true)
      assert(!scansCache(run()) && sc.getPersistentRDDs.size == uncached)
      // Cached again after a run over the first cache: the run reads the new cache only.
      input.cache()
      val (_, again) = collected(input, queries)
      input.unpersist(blocking = true)
      input.cache()
      val recached = run()
      assert(!(recached eq again))
      assert(scansCache(recached) && sc.getPersistentRDDs.size == uncached + 1)
    } finally input.unpersist(blocking = true)
    assert(sc.getPersistentRDDs.size == uncached)
  }

  test("a run after a session setting changes plans a fresh copy under the new setting") {
    val key = "spark.sql.codegen.wholeStage"
    def generated(qe: QueryExecution): Boolean = qe.executedPlan.exists(_.isInstanceOf[WholeStageCodegenExec])
    val reference = Scheduler.runIndependent(attack, demo).alerts
    val (_, planned) = collected(attack, demo)
    assert(generated(planned))
    val before = spark.conf.getOption(key)
    spark.conf.set(key, "false")
    try {
      val (run, fresh) = collected(attack, demo)
      assert(!(fresh eq planned) && !generated(fresh))
      assert(run.alerts == reference)
    } finally before.fold(spark.conf.unset(key))(spark.conf.set(key, _))
    val (_, restored) = collected(attack, demo)
    assert(generated(restored))
  }

  test("concurrent runs of the same queries over the same input each return the reference") {
    val reference = Scheduler.runIndependent(attack, demo).alerts
    val n = attack.count()
    val pool = Executors.newFixedThreadPool(2)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      val runs = Seq.fill(2)(Future(Seq.fill(4)(Scheduler.runMasterDependent(attack, demo))))
      for (run <- Await.result(Future.sequence(runs), 5.minutes).flatten) {
        assert(run.alerts == reference)
        assert(run.stats.rowsScanned == n)
      }
    } finally pool.shutdown()
  }

  test("a copy without unread columns serves queries that return evt.id and read i.srcport") {
    val ports = Parser.parse(
      """proc p["%chrome.exe"] write ip i[srcport > 0] as evt
        |return p, evt.id, i.srcport""".stripMargin, "chrome_ports")
    val queries = Seq(master, ports)
    val mdq = Scheduler.runMasterDependent(stream, queries)
    assert(mdq.alerts == Scheduler.runIndependent(stream, queries).alerts)
    assert(mdq.alerts("chrome_ports").nonEmpty)
  }

  test("an empty query list raises no alerts") {
    for (run <- Seq[Seq[SaqlQuery] => Scheduler.ScheduledRun](
           Scheduler.runIndependent(stream, _), Scheduler.runMasterDependent(stream, _)))
      assert(run(Nil).alerts.isEmpty)
  }

  test("duplicate query names are rejected before any Spark job") {
    val twice = Seq(master, netQuery("net_all", "chrome.exe"))
    val (_, executions) = sqlExecutions {
      for (run <- Seq[Seq[SaqlQuery] => Any](
             Scheduler.runIndependent(stream, _), Scheduler.runMasterDependent(stream, _))) {
        val e = intercept[IllegalArgumentException](run(twice))
        assert(e.getMessage.contains("duplicate query names: net_all"), e.getMessage)
      }
    }
    assert(executions.isEmpty)
  }

  // ------------------------------------- one Spark execution per run

  test("five compatible stateful queries issue as many Spark executions as one") {
    val (_, one) = sqlExecutions(Scheduler.runMasterDependent(stream, Seq(master)))
    val (_, five) = sqlExecutions(Scheduler.runMasterDependent(stream, master +: deps))
    assert(five.size == one.size)
  }

  test("a dependent raises no alert for a group only the master matched") {
    val anyChrome = Parser.parse(
      """proc p["%chrome.exe"] write ip i as evt #time(10 min)
        |state ss { amt := sum(evt.amount) } group by p
        |alert ss.amt >= 0
        |return p, ss.amt""".stripMargin, "chrome_any")
    val queries = Seq(master, anyChrome)
    val mdq = Scheduler.runMasterDependent(stream, queries)
    assert(mdq.alerts == Scheduler.runIndependent(stream, queries).alerts)
    assert(mdq.alerts("net_all").exists(!_.values("p").endsWith("chrome.exe")))
    assert(mdq.alerts("chrome_any").nonEmpty)
    assert(mdq.alerts("chrome_any").forall(_.values("p").endsWith("chrome.exe")))
  }

  test("two key sets still run as one Spark execution") {
    val byIp = Parser.parse(
      """proc p["%chrome.exe"] write ip i as evt #time(10 min)
        |state ss { amt := sum(evt.amount) } group by i.dstip
        |alert ss.amt > 0
        |return i.dstip, ss.amt""".stripMargin, "chrome_by_ip")
    val queries = master +: deps :+ byIp
    val (_, oneKeySet) = sqlExecutions(Scheduler.runMasterDependent(stream, master +: deps))
    val (mdq, twoKeySets) = sqlExecutions(Scheduler.runMasterDependent(stream, queries))
    assert(oneKeySet.size == 1 && twoKeySets.size == 1, (oneKeySet, twoKeySets))
    assert(mdq.alerts == Scheduler.runIndependent(stream, queries).alerts)
    assert(mdq.alerts("chrome_by_ip").nonEmpty)
  }

  test("fused avg, sum, count, max, min and set over sliding windows equal independent runs") {
    def allAggs(name: String, subj: String): SaqlQuery = Parser.parse(
      s"""proc p$subj write ip i as evt #time(10 min, 5 min)
         |state ss { a := avg(evt.amount)
         |s := sum(evt.amount)
         |n := count(evt.amount)
         |hi := max(evt.amount)
         |lo := min(evt.amount)
         |ips := set(i.dstip) } group by p
         |alert ss.n > 0
         |return p, ss.a, ss.s, ss.n, ss.hi, ss.lo, ss.ips""".stripMargin, name)
    val queries = Seq(allAggs("aggs_all", ""), allAggs("aggs_chrome", "[\"%chrome.exe\"]"),
                      allAggs("aggs_outlook", "[\"%outlook.exe\"]"))
    val mdq = Scheduler.runMasterDependent(stream, queries)
    assert(mdq.alerts == Scheduler.runIndependent(stream, queries).alerts)
    assert(queries.forall(q => mdq.alerts(q.name).nonEmpty))
  }

  // ------------------------------------------- driver arm on edge streams

  /** The run's alerts, after checking that both arms raise the same ones. */
  private def bothArms(events: DataFrame, queries: SaqlQuery*): Map[String, Seq[AlertRecord]] = {
    val mdq = Scheduler.runMasterDependent(events, queries)
    assert(mdq.alerts == Scheduler.runIndependent(events, queries).alerts)
    mdq.alerts
  }

  private val handOff = Parser.parse(
    """proc p1["%a.exe"] write file f1 as evt1
      |proc p2["%b.exe"] read file f1 as evt2
      |with evt1 -> evt2
      |return distinct p1, p2, f1""".stripMargin, "hand_off")

  test("edge: events with equal timestamps are not in sequence") {
    // `distinct` keeps the earliest of the two matches of (a.exe, b.exe, /x).
    val evs = Seq(
      file(0, 1000L, "a.exe", "write", "/x"), file(0, 1000L, "b.exe", "read", "/x"),
      file(0, 2000L, "b.exe", "read", "/x"), file(0, 2500L, "b.exe", "read", "/x"),
      file(0, 3000L, "a.exe", "write", "/y"), file(0, 3000L, "b.exe", "read", "/y"))
    val alerts = bothArms(df(spark, evs), handOff)("hand_off")
    assert(alerts.map(a => a.ts -> a.values("f1")) == Seq(2000L -> "/x"))
  }

  test("edge: a null identity column joins no event") {
    val q = Parser.parse(
      """proc p1["%a.exe"] write file f1 as evt1
        |proc p2["%b.exe"] read file f1 as evt2
        |return p1, p2, f1""".stripMargin, "shared_file")
    val evs = Seq(
      file(0, 1000L, "a.exe", "write", null), file(0, 2000L, "b.exe", "read", null),
      file(0, 3000L, "a.exe", "write", "/z"), file(0, 4000L, "b.exe", "read", "/z"),
      file(0, 5000L, "b.exe", "read", "/z"))
    val alerts = bothArms(df(spark, evs), q)("shared_file")
    assert(alerts.map(a => a.ts -> a.values("f1")) == Seq(4000L -> "/z", 5000L -> "/z"))
  }

  test("edge: patterns with no condition between them are a cross join, every match an alert") {
    val q = Parser.parse(
      """proc p1["%a.exe"] write file f1 as evt1
        |proc p2["%b.exe"] read file f2 as evt2
        |return p1, f1, f2""".stripMargin, "cross")
    val evs = Seq(
      file(0, 1000L, "a.exe", "write", "/1"), file(0, 2000L, "a.exe", "write", "/2"),
      file(0, 1500L, "b.exe", "read", "/3"), file(0, 500L, "b.exe", "read", "/4"),
      file(0, 2000L, "b.exe", "read", "/4"))
    val alerts = bothArms(df(spark, evs), q, handOff)
    assert(alerts("cross").size == 6 && alerts("cross").map(_.ts).distinct.size == 3)
    assert(alerts("hand_off").isEmpty)
  }

  test("edge: every aggregate skips null inputs, and a group of only nulls reads 0") {
    val q = Parser.parse(
      """proc p write ip i as evt #time(10 s)
        |state ss { a := avg(evt.amount)
        |s := sum(evt.amount)
        |n := count(evt.amount)
        |hi := max(evt.amount)
        |lo := min(evt.amount)
        |amounts := set(evt.amount) } group by p
        |return p, ss.a, ss.s, ss.n, ss.hi, ss.lo, ss.amounts""".stripMargin, "null_amounts")
    val evs = Seq(net(0, 1000L, "a.exe", "1.1.1.1", 100), net(0, 2000L, "a.exe", "1.1.1.1", -1),
      net(0, 3000L, "a.exe", "1.1.1.1", 300), net(0, 4000L, "b.exe", "1.1.1.1", -1),
      net(0, 5000L, "b.exe", "1.1.1.1", -1))
    // -1 stands for a null amount.
    val events = df(spark, evs).withColumn("amount",
      when(col("amount") >= 0, col("amount")).otherwise(lit(null).cast("long")))
    val byExe = bothArms(events, q)("null_amounts").map(a => a.values("p") -> a.values).toMap
    assert(byExe("a.exe")("ss_a") == "200" && byExe("a.exe")("ss_n") == "2")
    assert(Seq("ss_a", "ss_s", "ss_n", "ss_hi", "ss_lo").forall(byExe("b.exe")(_) == "0"))
  }

  test("edge: sliding windows, and an event in a gap between windows is in none") {
    def windowed(name: String, time: String): SaqlQuery = Parser.parse(
      s"""proc p write ip i as evt #time($time)
         |state ss { s := sum(evt.amount) } group by p
         |return p, ss.s""".stripMargin, name)
    val evs = Seq(30_000L, 300_000L, 420_000L, 630_000L).map(ts => net(0, ts, "a.exe", "1.1.1.1", 100))
    val alerts = bothArms(df(spark, evs), windowed("sliding", "10 min, 5 min"), windowed("gaps", "1 min, 10 min"))
    assert(alerts("sliding").map(_.win) == Seq(0L, 1L, 2L))
    // Window 0 is [0, 1 min) and window 1 is [10 min, 11 min): each holds one event.
    assert(alerts("gaps").map(a => a.win -> a.values("ss_s")) == Seq(0L -> "100", 1L -> "100"))
  }

  test("edge: a null group key is its own group") {
    val q = Parser.parse(
      """proc p write ip i as evt #time(10 s)
        |state ss { n := count(evt.amount) } group by i.dstip
        |return i.dstip, ss.n""".stripMargin, "null_key")
    val evs = Seq(net(0, 1000L, "a.exe", "1.1.1.1", 100), net(0, 2000L, "a.exe", null, 100),
      net(0, 3000L, "a.exe", null, 100))
    val alerts = bothArms(df(spark, evs), q)("null_key")
    assert(alerts.map(a => a.values("i_dstip") -> a.values("ss_n")).toSet == Set("1.1.1.1" -> "1", "null" -> "2"))
  }
}
