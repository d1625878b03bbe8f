package repro.events

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic enterprise system-monitoring stream.
  *
  * Substitute for the paper's proprietary NEC Labs feed (150 hosts, data
  * collection agents on auditd / ETW / DTrace). Generates deterministic
  * benign background activity — process starts, file I/O, network I/O —
  * for `nHosts(sf)` hosts over a configurable duration, built entirely from
  * Spark column expressions so it is reproducible in `(sf, seed)`.
  *
  * Behavioural properties the anomaly queries rely on:
  *   - `apache.exe` / `excel.exe` spawn children from a small fixed set, so
  *     invariant models converge during training windows;
  *   - per-process network amounts are log-uniform with benign per-window
  *     averages well below the paper's 10 000-byte SMA alert threshold;
  *   - benign per-destination-IP window sums for `sqlservr.exe` stay below
  *     the paper's 1 000 000-byte outlier threshold.
  */
object MonitoringData {

  /** Events per unit scale factor (SF=0.1 ~ 200k events ~ realistic demo). */
  private val NEventsPerSf = 2_000_000L

  /** Hosts per unit scale factor (paper deployment: 150 hosts). */
  private def nHosts(sf: Double): Int = math.max(2, (100 * sf).toInt)

  /** Default stream duration: two hours of wall-clock event time. */
  val DefaultDurationMs: Long = 2L * 60 * 60 * 1000

  // ---- benign behaviour pools (parallel arrays => correlated picks) -------

  private val procParents = Seq(
    "services.exe", "explorer.exe", "explorer.exe", "apache.exe",
    "apache.exe", "apache.exe", "cmd.exe", "outlook.exe", "sqlservr.exe",
    "excel.exe", "cron", "chrome.exe")
  private val procChildren = Seq(
    "svchost.exe", "chrome.exe", "outlook.exe", "httpd-worker.exe",
    "php-cgi.exe", "rotatelogs.exe", "ipconfig.exe", "excel.exe",
    "sqlagent.exe", "splwow64.exe", "backup.sh", "chrome-render.exe")

  private val fileProcs = Seq(
    "chrome.exe", "chrome.exe", "sqlservr.exe", "sqlservr.exe",
    "svchost.exe", "apache.exe", "apache.exe", "excel.exe", "excel.exe",
    "outlook.exe", "backup.exe", "cron")
  private val fileNames = Seq(
    "/tmp/cache.dat", "/home/user/downloads/file.bin", "/data/db/master.mdf",
    "/data/db/master.ldf", "/windows/system32/config.sys",
    "/var/www/html/index.html", "/var/log/apache/access.log",
    "/home/user/docs/report.xlsx", "/home/user/docs/report.xlsx",
    "/home/user/mail/inbox.pst", "/backup/daily.bak", "/etc/crontab")
  private val fileOps = Seq(
    "write", "write", "read", "write", "read", "read", "write", "read",
    "write", "write", "write", "read")

  private val netProcs = Seq(
    "chrome.exe", "chrome.exe", "outlook.exe", "outlook.exe", "sqlservr.exe",
    "svchost.exe", "apache.exe", "ntpd")
  private val netDstIps = Seq(
    "203.0.113.10", "203.0.113.11", "10.0.0.5", "10.0.0.5", "10.0.1.0",
    "10.0.0.2", "10.0.2.0", "10.0.0.1")
  // sqlservr / apache fan out to ten client IPs; marked by a trailing ".0"
  // placeholder replaced with a random last octet 20..29 below.
  private val netOps = Seq(
    "read", "write", "read", "write", "write", "write", "write", "write")
  private val netDstPorts = Seq(443L, 443L, 993L, 25L, 1433L, 135L, 80L, 123L)
  private val netAmtMin = Seq(100.0, 100.0, 1000.0, 100.0, 1000.0, 50.0, 100.0, 48.0)
  // Maxima keep benign per-process window averages below the paper's
  // 10 000-byte SMA alert threshold (log-uniform mean = (max-min)/ln(max/min)).
  private val netAmtMax = Seq(20000.0, 20000.0, 20000.0, 10000.0, 5000.0, 2000.0, 20000.0, 90.0)

  private def pickStr(pool: Seq[String], idx: Column): Column =
    element_at(array(pool.map(lit): _*), idx)
  private def pickNum(pool: Seq[Double], idx: Column): Column =
    element_at(array(pool.map(lit): _*), idx)
  private def pickLong(pool: Seq[Long], idx: Column): Column =
    element_at(array(pool.map(lit): _*), idx)

  /** Log-uniform amount in [min, max]: heavy-tailed like real I/O sizes. */
  private def logUniform(minC: Column, maxC: Column, r: Column): Column =
    (minC * exp(r * log(maxC / minC))).cast(LongType)

  /** The benign background event stream for scale factor `sf`.
    *
    * Deterministic in `(sf, seed)`. Events are NOT sorted by `ts`; callers
    * that need replay order sort (the replayer does).
    */
  def events(spark: SparkSession, sf: Double = 0.01, seed: Long = 0,
             durationMs: Long = DefaultDurationMs): DataFrame = {
    val nEvents = math.max(2000L, (NEventsPerSf * sf).toLong)
    val hosts   = nHosts(sf)

    val base = spark.range(nEvents).select(
      col("id") as "event_id",
      (rand(seed) * hosts).cast(LongType) as "agentid",
      (rand(seed + 1) * durationMs).cast(LongType) as "ts",
      rand(seed + 2) as "r_kind",   // substream selector
      rand(seed + 3) as "r_pair",   // behaviour-tuple selector
      rand(seed + 4) as "r_amt",    // amount draw
      rand(seed + 5) as "r_misc",   // ports / octets / pid jitter
    )

    // Substream split: 15 % process starts, 45 % file I/O, 40 % network I/O.
    val kind = when(col("r_kind") < 0.15, lit("process"))
      .when(col("r_kind") < 0.60, lit("file"))
      .otherwise(lit("network"))

    val procIdx = (col("r_pair") * procParents.size).cast(IntegerType) + 1
    val fileIdx = (col("r_pair") * fileProcs.size).cast(IntegerType) + 1
    val netIdx  = (col("r_pair") * netProcs.size).cast(IntegerType) + 1

    val subjExe = when(kind === "process", pickStr(procParents, procIdx))
      .when(kind === "file", pickStr(fileProcs, fileIdx))
      .otherwise(pickStr(netProcs, netIdx))

    // Stable per-(host, behaviour) pid so shared-variable joins are coherent.
    val subjPid = col("agentid") * 1000 +
      when(kind === "process", procIdx).when(kind === "file", fileIdx)
        .otherwise(netIdx) * 7

    val dstIpRaw = pickStr(netDstIps, netIdx)
    // Expand the ".0" placeholder IPs into ten per-client addresses.
    val dstIp = when(dstIpRaw.endsWith(".0"),
        concat(expr("substring(dst_ip_raw, 1, length(dst_ip_raw) - 1)"),
               (col("r_misc") * 10 + 20).cast(IntegerType).cast(StringType)))
      .otherwise(dstIpRaw)

    base
      .withColumn("dst_ip_raw", dstIpRaw)
      .select(
        col("event_id"),
        col("agentid"),
        col("ts"),
        kind as "event_type",
        subjExe as "subj_exe",
        subjPid as "subj_pid",
        when(kind === "process", lit("start"))
          .when(kind === "file", pickStr(fileOps, fileIdx))
          .otherwise(pickStr(netOps, netIdx)) as "op",
        when(kind === "file", pickStr(fileNames, fileIdx))
          .otherwise(lit(null).cast(StringType)) as "file_name",
        when(kind === "process", pickStr(procChildren, procIdx))
          .otherwise(lit(null).cast(StringType)) as "obj_exe",
        when(kind === "process", subjPid * 10 + 1)
          .otherwise(lit(null).cast(LongType)) as "obj_pid",
        when(kind === "network",
             concat(lit("10.0.0."), (col("agentid") + 50).cast(StringType)))
          .otherwise(lit(null).cast(StringType)) as "src_ip",
        when(kind === "network", (col("r_misc") * 20000 + 40000).cast(LongType))
          .otherwise(lit(null).cast(LongType)) as "src_port",
        when(kind === "network", dstIp)
          .otherwise(lit(null).cast(StringType)) as "dst_ip",
        when(kind === "network", pickLong(netDstPorts, netIdx))
          .otherwise(lit(null).cast(LongType)) as "dst_port",
        when(kind === "network",
             logUniform(pickNum(netAmtMin, netIdx), pickNum(netAmtMax, netIdx),
                        col("r_amt")))
          .when(kind === "file",
                logUniform(lit(100.0), lit(100000.0), col("r_amt")))
          .otherwise(lit(0L)) as "amount",
      )
  }
}
