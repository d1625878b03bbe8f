package repro.report

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.QueryEngine
import repro.events.SystemEvent
import repro.report.Tables.T4Row
import repro.saql.Parser
import scala.util.Random

/** Ground-truth anomaly-injection sweeps behind table T4: synthetic streams
  * with known anomalies at a sweep of magnitudes, measuring each advanced
  * model's precision/recall as the anomaly approaches benign noise.
  */
object TestStreams {

  private def net(agent: Long, ts: Long, subj: String, dstIp: String,
                  amount: Long): SystemEvent =
    SystemEvent(0L, agent, ts, "network", subj, 1L, "write", null, null, -1L,
      "10.0.0.50", 40000L, dstIp, 443L, amount)

  private def start(agent: Long, ts: Long, parent: String, child: String): SystemEvent =
    SystemEvent(0L, agent, ts, "process", parent, 1L, "start", null, child,
      2L, null, -1L, null, -1L, 0L)

  private def df(spark: SparkSession, evs: Seq[SystemEvent]): DataFrame = {
    import spark.implicits._
    evs.toDF()
  }

  private val WinMs = 10_000L

  // --------------------------------------------------------- time-series

  private val smaQuery = Parser.parse(
    """proc p write ip i as evt #time(10 s)
      |state[3] ss { avg_amount := avg(evt.amount) } group by p
      |alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 10000)
      |return p, ss[0].avg_amount""".stripMargin, "t4_sma")

  /** SMA spike detection vs injected per-window traffic spikes. Baseline
    * per-process window averages sit near 3k (threshold 10k); spike events
    * mix 1:1 with the window's baseline, so the spiked window average is
    * 1500 + mag/2 — the 8k arm stays sub-threshold (expected miss), the
    * rest clear it by growing margins.
    */
  def smaSweep(spark: SparkSession,
               magnitudes: Seq[Long] = Seq(8_000, 25_000, 60_000, 400_000)): Seq[T4Row] = {
    val rnd = new Random(42)
    val procs = (0 until 20).map(i => f"proc$i%02d.exe")
    val baseline = for {
      p <- procs; w <- 0 until 24; _ <- 0 until 10
    } yield net(0, w * WinMs + rnd.nextInt(WinMs.toInt), p, "1.1.1.1",
                2000 + rnd.nextInt(2000))
    magnitudes.map { mag =>
      val injected = (0 until 5).map(i => (procs(i * 3), 4 + i * 4)) // (proc, win)
      val spikes = injected.flatMap { case (p, w) =>
        (0 until 10).map(_ => net(0, w * WinMs + rnd.nextInt(WinMs.toInt), p,
          "1.1.1.1", mag))
      }
      val alerts = QueryEngine.run(df(spark, baseline ++ spikes), smaQuery)
        .map(a => (a.values("p"), a.win.toInt)).toSet
      val truth = injected.toSet.map((t: (String, Int)) => (t._1, t._2))
      score("timeseries-sma", s"${mag}B spike", truth, alerts)
    }
  }

  // ------------------------------------------------------------ invariant

  private val invQuery = Parser.parse(
    """proc p1 start proc p2 as evt #time(10 s)
      |state ss { set_proc := set(p2.exe_name) } group by p1
      |invariant[10][offline] {
      |  a := empty_set
      |  a = a union ss.set_proc
      |}
      |alert |ss.set_proc diff a| > 0
      |return p1, ss.set_proc""".stripMargin, "t4_inv")

  /** Invariant violation detection vs injected unseen-child process starts
    * after the training phase; the "seen" arm injects already-learned
    * children (must not alert).
    */
  def invariantSweep(spark: SparkSession,
                     injections: Seq[Int] = Seq(1, 5, 10)): Seq[T4Row] = {
    val rnd = new Random(43)
    val parents = (0 until 10).map(i => f"srv$i%02d.exe")
    val children = Seq("worker.exe", "logger.exe", "helper.exe")
    val baseline = for {
      p <- parents; w <- 0 until 30
    } yield start(0, w * WinMs + rnd.nextInt(WinMs.toInt), p,
                  children(rnd.nextInt(children.size)))
    // Stabilise training: every parent sees every benign child early.
    val trainAll = for {
      p <- parents; (c, i) <- children.zipWithIndex; w <- 0 until 3
    } yield start(0, w * WinMs + i * 100, p, c)

    val unseenArms = injections.map { k =>
      val injected = (0 until k).map(i => (parents(i % parents.size), 12 + i))
      val novel = injected.map { case (p, w) =>
        start(0, w * WinMs + 500, p, "novel.exe")
      }
      val alerts = QueryEngine.run(df(spark, baseline ++ trainAll ++ novel), invQuery)
        .map(a => (a.values("p1"), a.win.toInt)).toSet
      score("invariant", s"$k unseen children", injected.toSet, alerts)
    }
    val seenArm = {
      val injected = (0 until 5).map(i => (parents(i), 12 + i))
      val seen = injected.map { case (p, w) => start(0, w * WinMs + 500, p, "worker.exe") }
      val alerts = QueryEngine.run(df(spark, baseline ++ trainAll ++ seen), invQuery)
        .map(a => (a.values("p1"), a.win.toInt)).toSet
      // Ground truth is empty: learned children must not fire.
      score("invariant", "5 seen children (control)", Set.empty, alerts)
    }
    unseenArms :+ seenArm
  }

  // -------------------------------------------------------------- outlier

  private val outlierQuery = Parser.parse(
    """proc p["%db.exe"] read || write ip i as evt #time(10 s)
      |state ss { amt := sum(evt.amount) } group by i.dstip
      |cluster(points=all(ss.amt), distance="ed", method="DBSCAN(100000, 5)")
      |alert cluster.outlier && ss.amt > 1000000
      |return i.dstip, ss.amt""".stripMargin, "t4_outlier")

  /** DBSCAN peer-comparison vs injected exfiltration volumes: ten benign
    * destination IPs with ~20k window sums; the injected IP's volume sweeps
    * from sub-threshold to the paper's dump size.
    */
  def outlierSweep(spark: SparkSession,
                   volumes: Seq[Long] = Seq(500_000, 2_000_000, 6_000_000)): Seq[T4Row] = {
    val rnd = new Random(44)
    val baseline = for {
      w <- 0 until 10; ip <- 0 until 10; _ <- 0 until 8
    } yield net(0, w * WinMs + rnd.nextInt(WinMs.toInt), "db.exe",
                s"10.0.1.2$ip", 2000 + rnd.nextInt(1000))
    volumes.map { vol =>
      val injectedWins = Seq(2, 5, 8)
      val exfil = injectedWins.flatMap(w =>
        (0 until 4).map(_ => net(0, w * WinMs + rnd.nextInt(WinMs.toInt),
          "db.exe", "6.6.6.6", vol / 4)))
      val alerts = QueryEngine.run(df(spark, baseline ++ exfil), outlierQuery)
        .map(a => (a.values("i_dstip"), a.win.toInt)).toSet
      val truth = injectedWins.map(w => ("6.6.6.6", w)).toSet
      score("outlier-dbscan", s"${vol}B exfil", truth, alerts)
    }
  }

  private def score(model: String, magnitude: String,
                    truth: Set[(String, Int)], alerts: Set[(String, Int)]): T4Row = {
    val tp = (alerts intersect truth).size
    T4Row(model, magnitude, truth.size, tp, alerts.size - tp, truth.size - tp)
  }
}
