package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions.{col, lit, udf}
import repro.SparkSpec
import repro.events.{AttackTrace, MonitoringData}
import repro.saql.Parser
import repro.saql.Ast.SaqlQuery

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
    // The consumers run concurrently: every run must give the same alerts.
    for (run <- 1 to 3)
      assert(Scheduler.runMasterDependent(attack, demo).alerts == ind, s"run $run")
  }

  test("the 8 demo queries count the input and one copy, nothing more") {
    val (_, actions) = sqlExecutions(Scheduler.runMasterDependent(attack, demo))
    // One count fills the copy and counts the input; 5 rule and 3 state collects.
    assert(actions.count(_ == "count") == 1, actions)
    assert(actions.count(_ == "collect") == 8 && actions.size == 9, actions)
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
    assert(groups.size >= 9 && groups.asScala.forall(_ == "saql-run"), groups)
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

  // ------------------------------- one state aggregation per key set

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

  test("one group with two key sets runs as two state aggregations") {
    val byIp = Parser.parse(
      """proc p["%chrome.exe"] write ip i as evt #time(10 min)
        |state ss { amt := sum(evt.amount) } group by i.dstip
        |alert ss.amt > 0
        |return i.dstip, ss.amt""".stripMargin, "chrome_by_ip")
    val queries = master +: deps :+ byIp
    val (_, oneKeySet) = sqlExecutions(Scheduler.runMasterDependent(stream, master +: deps))
    val (mdq, twoKeySets) = sqlExecutions(Scheduler.runMasterDependent(stream, queries))
    assert(twoKeySets.size == oneKeySet.size + 1)
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
}
