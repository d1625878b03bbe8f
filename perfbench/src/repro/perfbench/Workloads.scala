package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{AlertRecord, QueryEngine, Scheduler}
import repro.events.{AttackTrace, MonitoringData, StreamReplayer}
import repro.queries.DemoQueries
import repro.report.Tables
import repro.saql.Ast.SaqlQuery

/** What one operation returned: alerts per query, plus the scheduler's
  * group count when the operation went through the scheduler.
  */
final case class OpResult(alerts: Map[String, Seq[AlertRecord]], groups: Int, parseMs: Double)

/** A workload after one set-up: cached inputs and constructed queries. */
trait Prepared {
  /** Events one operation reads. */
  def inputRows: Long
  def genS: Double
  def selectS: Double
  /** Time to construct (parse) the queries during set-up. */
  def parseMs: Double
  /** Operations per pass: a pass runs every query once. */
  def passSize: Int
  def opName(i: Int): String
  def op(i: Int): OpResult
  /** Compute the reference alerts; returns the failures it finds. */
  def reference(): Seq[String]
  /** Failures of operation `i`'s result against the reference. */
  def check(i: Int, r: OpResult): Seq[String]
  def release(): Unit
}

trait Workload {
  def setUp(spark: SparkSession, seed: Long): Prepared
}

object Workloads {
  /** Scale factor of every workload: 100k events over 2 h of event time. */
  val Sf = 0.05
  /** Attack start offset in the replayed stream (t + 60 min). */
  val AttackStartMs = 3_600_000L
  /** The replayer slice of `slice8`: hosts 0 and 1 over [t+30 min, t+90 min). */
  val SliceAgents = Seq(0L, 1L)
  val SliceStartMs = 1_800_000L
  val SliceEndMs = 5_400_000L

  val all: Map[String, Workload] = Map(
    "apt8" -> Apt8, "concurrent20" -> Concurrent20, "slice8" -> Slice8)

  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Cache `df` and materialise it; returns it with its row count. */
  def cached(df: DataFrame): (DataFrame, Long) = {
    val c = df.cache()
    (c, c.count())
  }

  // ------------------------------------------------------ correctness

  /** Seed-independent evidence per demo query: does an alert carry the
    * attack artifact of its step? (The T1 table's evidence map.)
    */
  val evidence: Map[String, Map[String, String] => Boolean] = Map(
    "r1_initial_compromise"   -> (v => v.get("f1").exists(_.endsWith(".xlsm"))),
    "r2_malware_infection"    -> (v => v.get("p2").contains("wscript.exe")),
    "r3_privilege_escalation" -> (v => v.get("p2").contains("gsecdump.exe")),
    "r4_penetration"          -> (v => v.get("p2").contains("sbblv.exe")),
    "r5_data_exfiltration"    -> (v => v.get("p4").contains("sbblv.exe")),
    "a1_invariant_excel"      -> (v => v.get("ss_set_proc").exists(_.contains("wscript.exe"))),
    "a2_timeseries_sma"       -> (v => v.get("p").contains("sbblv.exe")),
    "a3_outlier_dbscan"       -> (v => v.get("i_dstip").contains(AttackTrace.AttackerIp)),
  )
  val ruleQueries = Set("r1_initial_compromise", "r2_malware_infection",
    "r3_privilege_escalation", "r4_penetration", "r5_data_exfiltration")

  /** Evidence failures of one demo query's alerts. */
  def evidenceFailures(query: String, alerts: Seq[AlertRecord]): Seq[String] = {
    val ev = evidence(query)
    val missing =
      if (alerts.exists(a => ev(a.values))) Nil
      else Seq(s"$query: no alert carries its attack step's evidence")
    val notOne =
      if (ruleQueries(query) && alerts.map(_.values).distinct.size != 1)
        Seq(s"$query: ${alerts.map(_.values).distinct.size} distinct alerts, expected 1")
      else Nil
    missing ++ notOne
  }

  def diff(query: String, got: Seq[AlertRecord], want: Seq[AlertRecord]): Seq[String] =
    if (got.toSet == want.toSet && got.size == want.size) Nil
    else Seq(s"$query: ${got.size} alerts differ from the ${want.size} reference alerts")

  /** The demo queries in the order a pass runs them, each with its builder
    * (victim host 0, database host 1).
    */
  val demoBuilders: Seq[(String, () => SaqlQuery)] = Seq(
    "r1" -> (() => DemoQueries.r1InitialCompromise(0L)),
    "r2" -> (() => DemoQueries.r2MalwareInfection(0L)),
    "r3" -> (() => DemoQueries.r3PrivilegeEscalation(0L)),
    "r4" -> (() => DemoQueries.r4Penetration(1L)),
    "r5" -> (() => DemoQueries.r5DataExfiltration(1L)),
    "a1" -> (() => DemoQueries.a1InvariantExcel(0L)),
    "a2" -> (() => DemoQueries.a2TimeSeriesSma(1L)),
    "a3" -> (() => DemoQueries.a3OutlierDbscan(1L)),
  )

  def attackStream(spark: SparkSession, seed: Long): DataFrame =
    AttackTrace.withBackground(spark, sf = Sf, seed = seed, attackStartMs = AttackStartMs)

  /** Per-query reference through `QueryEngine.run`, the independent arm. */
  def independent(events: DataFrame, queries: Seq[SaqlQuery]): Map[String, Seq[AlertRecord]] =
    queries.map(q => q.name -> QueryEngine.run(events, q)).toMap

  // ------------------------------------------------------------ apt8

  /** All 8 demo queries at once through the master-dependent scheduler. */
  object Apt8 extends Workload {
    def setUp(spark: SparkSession, seed: Long): Prepared = {
      val ((stream, rows), genS0) = time(cached(attackStream(spark, seed)))
      val (queries, parseS) = time(DemoQueries.all().map(_._2))
      new Prepared {
        var ref = Map.empty[String, Seq[AlertRecord]]
        def inputRows = rows
        val genS: Double = genS0
        def selectS = 0.0
        def parseMs = parseS * 1e3
        def passSize = 1
        def opName(i: Int) = "all8"
        def op(i: Int): OpResult = {
          val r = Scheduler.runMasterDependent(stream, queries)
          OpResult(r.alerts, r.stats.groups, 0.0)
        }
        def reference(): Seq[String] = {
          ref = independent(stream, queries)
          queries.flatMap(q => evidenceFailures(q.name, ref(q.name)))
        }
        def check(i: Int, r: OpResult): Seq[String] =
          queries.flatMap { q =>
            val got = r.alerts.getOrElse(q.name, Nil)
            diff(q.name, got, ref(q.name)) ++ evidenceFailures(q.name, got)
          }
        def release(): Unit = stream.unpersist()
      }
    }
  }

  // ---------------------------------------------------- concurrent20

  /** The exe filters and thresholds of `Tables.concurrentQueries`. */
  private val concurrentExes = Seq("chrome.exe", "outlook.exe", "sqlservr.exe",
    "apache.exe", "svchost.exe", "ntpd", "backup.exe", "excel.exe")

  /** Oracle for `Tables.concurrentQueries(n)` in plain DataFrame operations:
    * network writes in 10-minute tumbling windows, `amount` summed per
    * subject executable, then each query's exe filter and threshold.
    */
  def concurrentOracle(events: DataFrame, n: Int): Map[String, Seq[AlertRecord]] = {
    val windowMs = 600_000L
    val sums = events
      .filter(col("event_type") === "network" && col("op") === "write")
      .groupBy(floor(col("ts") / windowMs).as("win"), col("subj_exe"))
      .agg(sum(col("amount")).as("amt"))
      .collect().toSeq
      .map(r => (r.getAs[Long]("win"), r.getAs[String]("subj_exe"), r.getAs[Long]("amt")))
    def alerts(name: String, exe: Option[String], threshold: Long): Seq[AlertRecord] =
      sums.filter { case (_, e, amt) => exe.forall(x => e.endsWith(x)) && amt > threshold }
        .map { case (win, e, amt) =>
          AlertRecord(name, win, win * windowMs + windowMs, Map("p" -> e, "ss_amt" -> amt.toString))
        }
    val deps = (0 until n - 1).map { i =>
      val name = f"net_dep_$i%02d"
      name -> alerts(name, Some(concurrentExes(i % concurrentExes.size)), 50000L + i * 10000L)
    }
    (("net_master" -> alerts("net_master", None, 100000L)) +: deps).toMap
  }

  /** 20 compatible queries (one master, 19 subsumed dependents). */
  object Concurrent20 extends Workload {
    val n = 20
    def setUp(spark: SparkSession, seed: Long): Prepared = {
      val ((stream, rows), genS0) = time(cached(MonitoringData.events(spark, sf = Sf, seed = seed)))
      val (queries, parseS) = time(Tables.concurrentQueries(n))
      new Prepared {
        var ref = Map.empty[String, Seq[AlertRecord]]
        def inputRows = rows
        val genS: Double = genS0
        def selectS = 0.0
        def parseMs = parseS * 1e3
        def passSize = 1
        def opName(i: Int) = s"concurrent$n"
        def op(i: Int): OpResult = {
          val r = Scheduler.runMasterDependent(stream, queries)
          OpResult(r.alerts, r.stats.groups, 0.0)
        }
        def reference(): Seq[String] = {
          ref = independent(stream, queries)
          val oracle = concurrentOracle(stream, n)
          val mismatches = queries.flatMap(q => diff(q.name, ref(q.name), oracle(q.name)))
            .map("reference vs DataFrame oracle: " + _)
          val silent = if (ref.values.map(_.size).sum == 0) Seq("no query raised any alert") else Nil
          mismatches ++ silent
        }
        def check(i: Int, r: OpResult): Seq[String] =
          queries.flatMap(q => diff(q.name, r.alerts.getOrElse(q.name, Nil), ref(q.name)))
        def release(): Unit = stream.unpersist()
      }
    }
  }

  // ---------------------------------------------------------- slice8

  /** The analyst's replay: each demo query built and run alone over a
    * replayer slice of the attack stream.
    */
  object Slice8 extends Workload {
    def setUp(spark: SparkSession, seed: Long): Prepared = {
      val ((full, _), genS0) = time(cached(attackStream(spark, seed)))
      val ((slice, rows), selectS0) = time(cached(
        StreamReplayer.select(full, SliceAgents, SliceStartMs, SliceEndMs)))
      val (queries, parseS) = time(demoBuilders.map(_._2()))
      new Prepared {
        var ref = Map.empty[String, Seq[AlertRecord]]
        def inputRows = rows
        val genS: Double = genS0
        val selectS: Double = selectS0
        def parseMs = parseS * 1e3
        def passSize = demoBuilders.size
        def opName(i: Int) = demoBuilders(i % passSize)._1
        def op(i: Int): OpResult = {
          val (q, pS) = time(demoBuilders(i % passSize)._2())
          OpResult(Map(q.name -> QueryEngine.run(slice, q)), 0, pS * 1e3)
        }
        /** The reference is each query over the whole stream, not the slice. */
        def reference(): Seq[String] = {
          ref = independent(full, queries)
          full.unpersist()
          queries.flatMap(q => evidenceFailures(q.name, ref(q.name)))
        }
        def check(i: Int, r: OpResult): Seq[String] =
          r.alerts.toSeq.flatMap { case (name, got) =>
            diff(name, got, ref(name)) ++ evidenceFailures(name, got)
          }
        def release(): Unit = { slice.unpersist(); full.unpersist() }
      }
    }
  }
}
